// Package checkpoint serializes the §7 snapshot cut to disk and restores it
// — the durability layer under cmd/jitserver (DESIGN.md §10).
//
// A checkpoint is the quiescent-cut state the adaptive re-optimizer already
// computes in memory (plan.Built.SnapshotInWindow, DESIGN.md §7), made
// durable: the plain (ID, source, TS, values) rows of every base tuple still
// inside the window at the cut, plus the two high-water marks recovery needs
// for exactly-once resumption — the last ingested tuple ID (the ingest HWM:
// everything at or below it is already inside this state or expired out of
// it) and the delivered-result count (the delivery HWM: results with
// sequence numbers at or below it are committed and must never be delivered
// again). Alongside the marks it carries the dedup seed: the canonical keys
// of delivered results whose oldest constituent is still in-window at the
// cut — exactly the results a replay can regenerate (anything older lost a
// constituent to expiry and is unreproducible by construction, so the seed
// set is bounded by one window of deliveries, not the run's history).
//
// The same (ID, source, TS, values) serialization doubles as a spill format
// for out-of-core state (PJoin's lineage argument, PAPERS.md): rows are
// self-describing and ordered, so a partial read is a usable prefix.
//
// The encoding is a deterministic line-oriented text format with a CRC-32
// trailer. Determinism matters twice: the round-trip property test compares
// encodings byte-for-byte, and two replicas of the same run write identical
// files. The CRC turns a torn write (a crash mid-checkpoint) into a typed
// decode error instead of silently half-restored state; Store.Save never
// exposes a torn file in the first place (write-tmp, sync, rename), so the
// CRC is the second line of defense, for files damaged after the rename.
package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// Errors returned by Decode; match with errors.Is.
var (
	// ErrCorrupt marks a checkpoint that fails structural or CRC
	// validation — a torn write or bit rot. Store.Latest skips such files
	// and falls back to the previous checkpoint.
	ErrCorrupt = fmt.Errorf("checkpoint: corrupt")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = fmt.Errorf("checkpoint: unsupported version")
)

// DeliveredKey is one entry of the recovery dedup seed: a delivered result
// that a snapshot replay could regenerate, with the minimum constituent
// timestamp that decides when it ages out of the seed (MinTS + window <= cut
// means no future replay can rebuild it).
type DeliveredKey struct {
	MinTS stream.Time
	Key   string
}

// TailEntry is one retained delivery of the subscriber ring at the cut:
// sequence number, result timestamp, canonical key. The tail is what lets a
// subscriber that had not yet read a committed delivery when the process was
// killed re-read it from the restarted server — without it, a SIGKILL
// between publish and the subscriber's socket read would lose the delivery
// forever (committed in the checkpoint, never received by anyone). The same
// record is the server's in-memory delivery (serve.Delivery) and, through the
// json tags, the delivery line of the wire protocol.
type TailEntry struct {
	Seq uint64      `json:"seq"`
	TS  stream.Time `json:"ts"`
	Key string      `json:"key"`
}

// Checkpoint is one durable snapshot cut.
type Checkpoint struct {
	// Cut is the application time of the quiescent cut the snapshot was
	// taken at (between arrivals, deadlines drained to the cut).
	Cut stream.Time
	// IngestHWM is the highest tuple ID ingested before the cut. Recovery
	// skips re-sent tuples at or below it; the ingest greeting tells
	// clients to resume past it.
	IngestHWM uint64
	// Delivered is the number of results delivered to subscribers before
	// the cut — the delivery high-water mark. Sequence numbers at or below
	// it are committed.
	Delivered uint64
	// Config identifies the plan the snapshot belongs to (topology, mode,
	// window, predicates). Restore refuses a checkpoint whose config does
	// not match the server's — replaying rows into a different plan would
	// silently produce wrong state.
	Config string
	// Keys is the recovery dedup seed (see DeliveredKey). Sorted by
	// (MinTS, Key) in the encoding for determinism.
	Keys []DeliveredKey
	// Tail is the subscriber delivery ring at the cut, oldest first, with
	// contiguous sequence numbers ending at Delivered (see TailEntry). The
	// restored server re-seeds its ring from it so committed deliveries stay
	// re-readable across a kill.
	Tail []TailEntry
	// Rows are the in-window base tuples at the cut, in global arrival
	// order — plan.Built.SnapshotInWindow's output, verbatim.
	Rows []*stream.Tuple
}

const header = "jitckpt v1"

// Encode renders the checkpoint in the deterministic text format.
func Encode(c *Checkpoint) []byte {
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
	fmt.Fprintf(&b, "tail %d\n", len(c.Tail))
	for _, d := range c.Tail {
		fmt.Fprintf(&b, "d %d %d %s\n", d.Seq, d.TS, d.Key)
	}
	fmt.Fprintf(&b, "rows %d\n", len(c.Rows))
	for _, t := range c.Rows {
		fmt.Fprintf(&b, "r %d %d %d %s\n", t.ID, t.Source, t.TS, encodeVals(t.Vals))
	}
	fmt.Fprintf(&b, "end\n")
	fmt.Fprintf(&b, "crc %08x\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func encodeVals(vals []stream.Value) string {
	if len(vals) == 0 {
		return "-"
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(parts, ",")
}

// Decode parses an encoded checkpoint, validating structure and CRC.
func Decode(data []byte) (*Checkpoint, error) {
	// The CRC line covers every byte before it, including the final
	// newline of "end".
	idx := bytes.LastIndex(data, []byte("\ncrc "))
	if idx < 0 {
		return nil, fmt.Errorf("%w: missing crc trailer", ErrCorrupt)
	}
	body, trailer := data[:idx+1], data[idx+1:]
	var want uint32
	if _, err := fmt.Sscanf(string(trailer), "crc %08x\n", &want); err != nil {
		return nil, fmt.Errorf("%w: malformed crc trailer", ErrCorrupt)
	}
	// The trailer must be exactly the crc line: data appended after it is
	// corruption, not slack.
	if string(trailer) != fmt.Sprintf("crc %08x\n", want) {
		return nil, fmt.Errorf("%w: trailing data after crc trailer", ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	lines := strings.Split(string(body), "\n")
	// Split leaves a trailing empty element after the final newline.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	p := &parser{lines: lines}
	if v := p.next(); v != header {
		return nil, fmt.Errorf("%w: header %q", ErrVersion, v)
	}
	c := &Checkpoint{}
	var err error
	if c.Cut, err = p.timeField("cut"); err != nil {
		return nil, err
	}
	if c.IngestHWM, err = p.uintField("hwm"); err != nil {
		return nil, err
	}
	if c.Delivered, err = p.uintField("delivered"); err != nil {
		return nil, err
	}
	cfg := p.next()
	if !strings.HasPrefix(cfg, "config ") {
		return nil, fmt.Errorf("%w: missing config line", ErrCorrupt)
	}
	c.Config = strings.TrimPrefix(cfg, "config ")
	nk, err := p.uintField("keys")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nk; i++ {
		line := p.next()
		var k DeliveredKey
		rest, ok := strings.CutPrefix(line, "k ")
		if !ok {
			return nil, fmt.Errorf("%w: key line %q", ErrCorrupt, line)
		}
		ts, key, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("%w: key line %q", ErrCorrupt, line)
		}
		n, err := strconv.ParseInt(ts, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: key minTS %q", ErrCorrupt, ts)
		}
		k.MinTS, k.Key = stream.Time(n), key
		c.Keys = append(c.Keys, k)
	}
	nt, err := p.uintField("tail")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nt; i++ {
		line := p.next()
		rest, ok := strings.CutPrefix(line, "d ")
		if !ok {
			return nil, fmt.Errorf("%w: tail line %q", ErrCorrupt, line)
		}
		seqStr, rest, ok1 := strings.Cut(rest, " ")
		tsStr, key, ok2 := strings.Cut(rest, " ")
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: tail line %q", ErrCorrupt, line)
		}
		seq, err1 := strconv.ParseUint(seqStr, 10, 64)
		ts, err2 := strconv.ParseInt(tsStr, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: tail line %q", ErrCorrupt, line)
		}
		c.Tail = append(c.Tail, TailEntry{Seq: seq, TS: stream.Time(ts), Key: key})
	}
	nr, err := p.uintField("rows")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nr; i++ {
		t, err := decodeRow(p.next())
		if err != nil {
			return nil, err
		}
		c.Rows = append(c.Rows, t)
	}
	if v := p.next(); v != "end" {
		return nil, fmt.Errorf("%w: missing end marker (got %q)", ErrCorrupt, v)
	}
	if !p.done() {
		return nil, fmt.Errorf("%w: trailing data after end marker", ErrCorrupt)
	}
	return c, nil
}

func decodeRow(line string) (*stream.Tuple, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "r" {
		return nil, fmt.Errorf("%w: row line %q", ErrCorrupt, line)
	}
	id, err1 := strconv.ParseUint(fields[1], 10, 64)
	src, err2 := strconv.ParseInt(fields[2], 10, 32)
	ts, err3 := strconv.ParseInt(fields[3], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("%w: row line %q", ErrCorrupt, line)
	}
	t := &stream.Tuple{ID: id, Source: stream.SourceID(src), TS: stream.Time(ts)}
	if fields[4] != "-" {
		parts := strings.Split(fields[4], ",")
		t.Vals = make([]stream.Value, len(parts))
		for i, s := range parts {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: row value %q", ErrCorrupt, s)
			}
			t.Vals[i] = stream.Value(v)
		}
	}
	return t, nil
}

// parser walks the header/keys/rows lines with graceful underflow.
type parser struct {
	lines []string
	i     int
}

func (p *parser) next() string {
	if p.i >= len(p.lines) {
		return ""
	}
	l := p.lines[p.i]
	p.i++
	return l
}

func (p *parser) done() bool { return p.i >= len(p.lines) }

func (p *parser) uintField(name string) (uint64, error) {
	line := p.next()
	rest, ok := strings.CutPrefix(line, name+" ")
	if !ok {
		return 0, fmt.Errorf("%w: expected %q line, got %q", ErrCorrupt, name, line)
	}
	v, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s value %q", ErrCorrupt, name, rest)
	}
	return v, nil
}

func (p *parser) timeField(name string) (stream.Time, error) {
	line := p.next()
	rest, ok := strings.CutPrefix(line, name+" ")
	if !ok {
		return 0, fmt.Errorf("%w: expected %q line, got %q", ErrCorrupt, name, line)
	}
	v, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s value %q", ErrCorrupt, name, rest)
	}
	return stream.Time(v), nil
}
