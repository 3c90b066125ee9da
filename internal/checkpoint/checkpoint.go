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
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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
	// (MinTS, Key) in the encoding for determinism (SortKeys).
	Keys []DeliveredKey
	// Tail is the subscriber delivery ring at the cut, oldest first, with
	// contiguous sequence numbers ending at Delivered (see TailEntry). The
	// restored server re-seeds its ring from it so committed deliveries stay
	// re-readable across a kill.
	Tail []TailEntry
	// TailWrapped, when set, continues Tail: a ring whose live span wraps
	// past its end is saved as its two segments rather than copied into one
	// slice. The encoding is that of the joined tail, and Decode returns the
	// whole tail in Tail.
	TailWrapped []TailEntry
	// Rows are the in-window base tuples at the cut, in global arrival
	// order — plan.Built.SnapshotInWindow's output, verbatim.
	Rows []*stream.Tuple
}

const header = "jitckpt v1"

// compareKeys is the seed's canonical order: MinTS, then Key.
func compareKeys(a, b DeliveredKey) int {
	if c := cmp.Compare(a.MinTS, b.MinTS); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// SortKeys puts a dedup seed into the canonical order the encoding writes it
// in. The encoder sorts a copy of an unsorted seed itself; a caller that
// checkpoints repeatedly sorts its own reused slice in place instead, so
// saving it copies nothing.
func SortKeys(keys []DeliveredKey) { slices.SortFunc(keys, compareKeys) }

// Encode renders the checkpoint in the deterministic text format: the
// in-memory case of the encoder Store.Save streams to disk.
func Encode(c *Checkpoint) []byte {
	var b bytes.Buffer
	_ = new(encoder).encode(&b, c) // a bytes.Buffer never fails a write
	return b.Bytes()
}

// spillAt is the scratch size at which the encoder hands its lines to the
// writer; a line longer than that goes out whole.
const spillAt = 4 << 10

// encoder streams the text format to a writer. Each line is appended with
// strconv into a reused scratch buffer, which goes out — and into the running
// CRC-32 — whenever it passes spillAt, so encoding holds one scratch buffer
// whatever the record's size and, given a sorted seed, allocates nothing once
// that buffer has grown.
type encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error // first write error; later spills are skipped
}

// encode writes c to w: every line, then the crc trailer over them.
func (e *encoder) encode(w io.Writer, c *Checkpoint) error {
	e.w, e.buf, e.crc, e.err = w, e.buf[:0], 0, nil
	e.str(header + "\ncut ")
	e.int(int64(c.Cut))
	e.str("\nhwm ")
	e.uint(c.IngestHWM)
	e.str("\ndelivered ")
	e.uint(c.Delivered)
	e.str("\nconfig ")
	e.str(c.Config)
	keys := c.Keys
	if !slices.IsSortedFunc(keys, compareKeys) {
		keys = slices.Clone(keys)
		SortKeys(keys)
	}
	e.str("\nkeys ")
	e.int(int64(len(keys)))
	e.endLine()
	for _, k := range keys {
		e.str("k ")
		e.int(int64(k.MinTS))
		e.str(" ")
		e.str(k.Key)
		e.endLine()
	}
	e.str("tail ")
	e.int(int64(len(c.Tail) + len(c.TailWrapped)))
	e.endLine()
	for _, seg := range [2][]TailEntry{c.Tail, c.TailWrapped} {
		for _, d := range seg {
			e.str("d ")
			e.uint(d.Seq)
			e.str(" ")
			e.int(int64(d.TS))
			e.str(" ")
			e.str(d.Key)
			e.endLine()
		}
	}
	e.str("rows ")
	e.int(int64(len(c.Rows)))
	e.endLine()
	for _, t := range c.Rows {
		e.str("r ")
		e.uint(t.ID)
		e.str(" ")
		e.int(int64(t.Source))
		e.str(" ")
		e.int(int64(t.TS))
		e.str(" ")
		if len(t.Vals) == 0 {
			e.str("-")
		}
		for i, v := range t.Vals {
			if i > 0 {
				e.str(",")
			}
			e.int(int64(v))
		}
		e.endLine()
	}
	e.str("end\n")
	e.spill()
	// The trailer is outside the checksum it carries: crc %08x.
	e.str("crc ")
	for shift := 28; shift >= 0; shift -= 4 {
		e.buf = append(e.buf, "0123456789abcdef"[e.crc>>shift&0xf])
	}
	e.str("\n")
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.w = nil
	return e.err
}

func (e *encoder) str(s string)  { e.buf = append(e.buf, s...) }
func (e *encoder) int(v int64)   { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *encoder) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// endLine closes a line and spills the scratch buffer once it is full.
func (e *encoder) endLine() {
	e.buf = append(e.buf, '\n')
	if len(e.buf) >= spillAt {
		e.spill()
	}
}

// spill adds the scratch buffer to the running checksum and writes it out.
func (e *encoder) spill() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
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
