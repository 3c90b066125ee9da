package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/stream"
)

// fmtEncode is the format written the slow way, with fmt and sort.Slice: the
// reference the streaming encoder is held to byte for byte.
func fmtEncode(c *Checkpoint) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", header)
	fmt.Fprintf(&b, "cut %d\n", c.Cut)
	fmt.Fprintf(&b, "hwm %d\n", c.IngestHWM)
	fmt.Fprintf(&b, "delivered %d\n", c.Delivered)
	fmt.Fprintf(&b, "config %s\n", c.Config)
	keys := append([]DeliveredKey(nil), c.Keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].MinTS != keys[j].MinTS {
			return keys[i].MinTS < keys[j].MinTS
		}
		return keys[i].Key < keys[j].Key
	})
	fmt.Fprintf(&b, "keys %d\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, "k %d %s\n", k.MinTS, k.Key)
	}
	tail := append(append([]TailEntry(nil), c.Tail...), c.TailWrapped...)
	fmt.Fprintf(&b, "tail %d\n", len(tail))
	for _, d := range tail {
		fmt.Fprintf(&b, "d %d %d %s\n", d.Seq, d.TS, d.Key)
	}
	fmt.Fprintf(&b, "rows %d\n", len(c.Rows))
	for _, t := range c.Rows {
		vals := "-"
		if len(t.Vals) > 0 {
			parts := make([]string, len(t.Vals))
			for i, v := range t.Vals {
				parts[i] = fmt.Sprint(int64(v))
			}
			vals = strings.Join(parts, ",")
		}
		fmt.Fprintf(&b, "r %d %d %d %s\n", t.ID, t.Source, t.TS, vals)
	}
	fmt.Fprintf(&b, "end\n")
	fmt.Fprintf(&b, "crc %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// randomCheckpoint draws a checkpoint whose sections are each empty about a
// fifth of the time, whose timestamps and values span the full signed range,
// and whose tail is split into two segments — as a wrapped ring hands it
// over — about half the time.
func randomCheckpoint(r *rand.Rand) *Checkpoint {
	i64 := func() int64 {
		switch r.IntN(4) {
		case 0:
			return []int64{0, -1, math.MinInt64, math.MaxInt64}[r.IntN(4)]
		case 1:
			return r.Int64N(2000) - 1000
		}
		return int64(r.Uint64())
	}
	size := func(max int) int {
		if r.IntN(5) == 0 {
			return 0
		}
		return 1 + r.IntN(max)
	}
	// Keys and the config line may hold anything but a newline, spaces
	// included: each is the rest of its line.
	const alphabet = "0123456789:| -abcé\t\"\\"
	text := func() string {
		n := r.IntN(12)
		var sb strings.Builder
		for range n {
			sb.WriteByte(alphabet[r.IntN(len(alphabet))])
		}
		return sb.String()
	}
	c := &Checkpoint{Cut: stream.Time(i64()), IngestHWM: r.Uint64(), Delivered: r.Uint64(), Config: text()}
	for range size(40) {
		c.Keys = append(c.Keys, DeliveredKey{MinTS: stream.Time(i64()), Key: text()})
	}
	if n := len(c.Keys); n > 1 && r.IntN(3) == 0 {
		c.Keys[n-1] = c.Keys[0] // a repeated entry
	}
	var tail []TailEntry
	for range size(60) {
		tail = append(tail, TailEntry{Seq: r.Uint64(), TS: stream.Time(i64()), Key: text()})
	}
	c.Tail = tail
	if len(tail) > 0 && r.IntN(2) == 0 {
		at := r.IntN(len(tail) + 1)
		c.Tail, c.TailWrapped = tail[:at], tail[at:]
	}
	for range size(50) {
		t := &stream.Tuple{ID: r.Uint64(), Source: stream.SourceID(r.IntN(8)), TS: stream.Time(i64())}
		for range r.IntN(5) {
			t.Vals = append(t.Vals, stream.Value(i64()))
		}
		c.Rows = append(c.Rows, t)
	}
	return c
}

// TestSaveMatchesEncodeProperty holds the one encoder to its two outputs on
// random checkpoints: Encode's bytes equal the fmt reference's, the file
// Save streams through one reused store equals Encode's bytes, and both
// decode back to the checkpoint with its seed sorted and its tail joined.
func TestSaveMatchesEncodeProperty(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r := rand.New(rand.NewPCG(27, 1))
	for i := range n {
		c := randomCheckpoint(r)
		data := Encode(c)
		if want := fmtEncode(c); !bytes.Equal(data, want) {
			t.Fatalf("checkpoint %d: Encode differs from the reference:\ngot  %q\nwant %q", i, data, want)
		}
		p, err := st.Save(c)
		if err != nil {
			t.Fatalf("checkpoint %d: save: %v", i, err)
		}
		file, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("checkpoint %d: read: %v", i, err)
		}
		if !bytes.Equal(file, data) {
			t.Fatalf("checkpoint %d: Save wrote %d bytes that differ from Encode's %d", i, len(file), len(data))
		}
		got, err := Decode(file)
		if err != nil {
			t.Fatalf("checkpoint %d: decode: %v", i, err)
		}
		want := *c
		want.Keys = slices.Clone(c.Keys)
		SortKeys(want.Keys)
		want.Tail, want.TailWrapped = append(slices.Clone(c.Tail), c.TailWrapped...), nil
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("checkpoint %d: decoded\n%+v\nwant\n%+v", i, got, &want)
		}
	}
	if n := st.Count(); n != 2 {
		t.Fatalf("retention keep=2 left %d files", n)
	}
}

// TestGoldenCheckpoint pins the format to a file written by hand: decoding
// it and encoding the checkpoint it describes — seed unsorted, tail in two
// segments — must both give back its exact bytes.
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.jck")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	c := &Checkpoint{
		Cut:       -1500,
		IngestHWM: math.MaxUint64,
		Delivered: 3,
		Config:    "jitserve-config/2 n=3 shape=hand-written window=60000",
		Keys: []DeliveredKey{
			{MinTS: 500, Key: "0:4|1:5|2:7"},
			{MinTS: -2000, Key: "0:1|1:2|2:3"},
			{MinTS: 500, Key: "0:4|1:5|2:6"},
		},
		Tail: []TailEntry{
			{Seq: 1, TS: -1800, Key: "0:1|1:2|2:3"},
			{Seq: 2, TS: 400, Key: "0:4|1:5|2:6"},
		},
		TailWrapped: []TailEntry{{Seq: 3, TS: 900, Key: "0:7|1:8|2:9"}},
		Rows: []*stream.Tuple{
			{ID: 7, Source: 0, TS: -2500, Vals: []stream.Value{3, -4}},
			{ID: 8, Source: 1, TS: -1000},
			{ID: 9, Source: 2, TS: 600, Vals: []stream.Value{12, 0, math.MinInt64}},
		},
	}
	if got := Encode(c); !bytes.Equal(got, golden) {
		t.Fatalf("Encode drifted from the golden file:\ngot\n%s\nwant\n%s", got, golden)
	}
	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(dec.Tail) != 3 || dec.TailWrapped != nil || len(dec.Keys) != 3 || len(dec.Rows) != 3 {
		t.Fatalf("decoded golden has %d tail (+%d), %d keys, %d rows", len(dec.Tail), len(dec.TailWrapped), len(dec.Keys), len(dec.Rows))
	}
	if got := Encode(dec); !bytes.Equal(got, golden) {
		t.Fatalf("re-encoding the golden file is not byte-identical:\n%s", got)
	}
}

// TestSaveAllocs budgets what one Store.Save allocates on a checkpoint of
// fanout_durable's shape — a full 16 384-entry delivery tail, 720 seed keys,
// 120 rows — with the seed sorted as the server sorts it. The record is
// 867 KB; streaming it through the store's reused encoder and write buffer
// costs about 15 small objects (1.6 KB) for the file and its path, where
// rendering it with fmt cost 51 187 objects and 2.67 MB per save.
func TestSaveAllocs(t *testing.T) {
	const (
		saves      = 8
		maxMallocs = 64
		maxBytes   = 16 << 10
	)
	c := &Checkpoint{Cut: 3600 * stream.Second, IngestHWM: 250000, Delivered: 1 << 20, Config: "alloc-budget"}
	for i := range 720 {
		c.Keys = append(c.Keys, DeliveredKey{MinTS: stream.Time(i) * 80, Key: fmt.Sprintf("0:%d|1:%d|2:%d", i, i%97, i%13)})
	}
	SortKeys(c.Keys)
	for i := range 1 << 14 {
		seq := c.Delivered - 1<<14 + uint64(i) + 1
		c.Tail = append(c.Tail, TailEntry{Seq: seq, TS: stream.Time(i) * 3, Key: fmt.Sprintf("0:%d|1:%d|2:%d|3:%d", 400000+i, 400100+i, 400200+i, 400300+i)})
	}
	for i := range 120 {
		c.Rows = append(c.Rows, &stream.Tuple{ID: uint64(i), Source: stream.SourceID(i % 3), TS: stream.Time(i) * 500, Vals: []stream.Value{stream.Value(i), -stream.Value(i)}})
	}
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Save(c); err != nil { // grows the scratch buffer once
		t.Fatalf("warm-up save: %v", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range saves {
		if _, err := st.Save(c); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	mallocs := float64(m1.Mallocs-m0.Mallocs) / saves
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / saves
	t.Logf("Store.Save of a %d-byte checkpoint: %.1f mallocs (budget %d), %.0f B (budget %d)",
		len(Encode(c)), mallocs, maxMallocs, bytes, maxBytes)
	if mallocs > maxMallocs {
		t.Errorf("%.1f mallocs per save, budget %d", mallocs, maxMallocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B allocated per save, budget %d", bytes, maxBytes)
	}
}
