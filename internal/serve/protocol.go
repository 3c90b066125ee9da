package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// The wire protocol is NDJSON over TCP (DESIGN.md §10): one JSON object per
// line, both directions. A connection's first line declares its role:
//
//	{"cmd":"ingest"}          the connection will stream tuple frames in
//	{"cmd":"subscribe"}       the connection wants the result stream out
//	{"cmd":"subscribe","from":N}  ... resuming after delivery sequence N
//
// Ingest frames carry one base tuple each:
//
//	{"id":17,"source":0,"ts":120000,"vals":[3,7,2]}
//
// and the stream ends with {"cmd":"eos"}, which starts the engine's
// end-of-stream drain. The server greets an ingest connection with
// {"ok":true,"resume_id":H} — tuples with ID <= H are already durable in
// the server's state and will be skipped if re-sent (the exactly-once
// resume contract) — and a subscriber with {"ok":true,"resume_seq":F},
// the incarnation's delivery floor: deliveries with seq <= F are gone for
// good, while committed deliveries above the floor (the checkpoint's
// restored ring tail) are re-readable verbatim — subscribers dedup by
// sequence number. On a fresh start the floor is simply 0. Deliveries are
//
//	{"seq":41,"ts":121500,"key":"0:3|1:9|2:11|3:14"}
//
// followed by {"eos":true,"delivered":N} when the stream drains to its
// horizon. Protocol errors are {"error":"..."} followed by connection
// close; a rejected frame never reaches the engine.

// Frame is one NDJSON line from an ingest connection: either a control
// command or a tuple. Unknown fields are rejected — a typo'd field name
// silently dropping data is worse than a hard error.
type Frame struct {
	Cmd    string  `json:"cmd,omitempty"`
	From   uint64  `json:"from,omitempty"`
	ID     uint64  `json:"id,omitempty"`
	Source int     `json:"source"`
	TS     int64   `json:"ts"`
	Vals   []int64 `json:"vals"`
}

// Typed ingest decode/validation errors; match with errors.Is. Every path
// that rejects a frame returns one of these BEFORE the frame reaches the
// engine channel, so a rejected frame provably leaves engine counters
// untouched (FuzzIngestFrame pins this).
var (
	// ErrMalformed marks a line that is not a valid frame object.
	ErrMalformed = fmt.Errorf("serve: malformed frame")
	// ErrFrameTooLong marks a line exceeding the frame size limit — the
	// truncated-frame guard.
	ErrFrameTooLong = fmt.Errorf("serve: frame exceeds size limit")
	// ErrDuplicateID marks a tuple whose ID does not advance the session's
	// last ingested ID (and is above the resume HWM, so it is not a
	// recovery replay).
	ErrDuplicateID = fmt.Errorf("serve: duplicate or regressing tuple id")
	// ErrUnknownSource marks a tuple naming a source outside the catalog.
	ErrUnknownSource = fmt.Errorf("serve: unknown source")
	// ErrBadArity marks a tuple whose value count does not match its
	// source's schema.
	ErrBadArity = fmt.Errorf("serve: value count does not match schema")
	// ErrTimeRegress marks a tuple whose timestamp goes backwards further
	// than the configured disorder bound admits (with no disorder bound,
	// any regression).
	ErrTimeRegress = fmt.Errorf("serve: timestamp regression beyond disorder bound")
	// ErrTimeRange marks a tuple whose timestamp is negative or beyond
	// stream.MaxTime, where the engine's window arithmetic would overflow.
	ErrTimeRange = fmt.Errorf("serve: timestamp outside the engine's time range")
	// ErrIngestBusy rejects a second concurrent ingest session: a single
	// ordered writer is what makes the ingested sequence deterministic.
	ErrIngestBusy = fmt.Errorf("serve: an ingest session is already active")
	// ErrStreamClosed rejects frames after eos.
	ErrStreamClosed = fmt.Errorf("serve: stream already closed by eos")
)

// MaxFrameBytes bounds one NDJSON line; longer lines are rejected with
// ErrFrameTooLong before any parsing.
const MaxFrameBytes = 1 << 20

// DecodeFrame parses one NDJSON line into a Frame. It is a pure function
// of the line — the fuzz target. Structural errors (bad JSON, unknown
// fields, trailing garbage) map to ErrMalformed; oversized input to
// ErrFrameTooLong.
func DecodeFrame(line []byte) (Frame, error) {
	var f Frame
	if len(line) > MaxFrameBytes {
		return f, fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(line))
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	// Trailing non-whitespace after the object is a framing error: two
	// objects on one line means the sender's line discipline is broken.
	if dec.More() {
		return Frame{}, fmt.Errorf("%w: trailing data after frame object", ErrMalformed)
	}
	return f, nil
}

// appendDelivery appends d's delivery line to b: the bytes json.Marshal
// writes for it under TailEntry's tags, then a newline. Canonical result keys
// are plain ASCII, which JSON writes as is; a key JSON would escape (quotes,
// backslashes, control bytes, <>&, anything non-ASCII) is left to
// json.Marshal, so the line is the same either way.
func appendDelivery(b []byte, d Delivery) []byte {
	if !plainJSON(d.Key) {
		line, _ := json.Marshal(d) // a struct of two integers and a string cannot fail
		return append(append(b, line...), '\n')
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, d.Seq, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, int64(d.TS), 10)
	b = append(b, `,"key":"`...)
	b = append(b, d.Key...)
	return append(b, "\"}\n"...)
}

// plainJSON reports whether json.Marshal writes s between its quotes
// unchanged.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// session validates the server's ordered tuple stream — one ingest connection
// at a time, each borrowing it where the last left off (serveIngest) —
// against the catalog and the resume high-water mark. It owns no engine
// state: apply either returns a tuple ready for the ingest channel, or
// (nil, nil) for a harmless skip (recovery replay of an already-ingested
// ID), or a typed error — and the caller only ever enqueues non-nil
// returns, which is what makes "rejected frames leave the engine untouched"
// a structural property rather than a claim.
type session struct {
	numSources int
	arity      func(src stream.SourceID) int
	resumeHWM  uint64      // IDs <= resumeHWM are recovery replays: skip
	disorder   stream.Time // admitted timestamp regression
	lastID     uint64
	maxTS      stream.Time
	started    bool
	skipped    uint64 // recovery replays skipped by the current connection
}

// admit checks what every tuple the plan is fed must satisfy, whether it
// comes from an ingest frame or a checkpoint row: a source in the catalog,
// the value count of that source's schema, and a timestamp inside the
// engine's time range.
func (s *session) admit(src, vals int, ts stream.Time) error {
	if src < 0 || src >= s.numSources {
		return fmt.Errorf("%w: source %d of %d", ErrUnknownSource, src, s.numSources)
	}
	if want := s.arity(stream.SourceID(src)); vals != want {
		return fmt.Errorf("%w: source %d wants %d values, got %d", ErrBadArity, src, want, vals)
	}
	if ts < 0 || ts > stream.MaxTime {
		return fmt.Errorf("%w: ts %d not in [0, %d]", ErrTimeRange, ts, stream.MaxTime)
	}
	return nil
}

// checkRestore holds a checkpoint to what the replay and the delivery ring
// rely on before either touches it: a CRC proves the file is the one that
// was written, not that its contents are well formed. Every row must pass
// admit, come in replay order (non-decreasing ts, none past the cut) and
// have been ingested before the cut; the delivery tail cannot be longer
// than the deliveries it ends at.
func (s *session) checkRestore(ck *checkpoint.Checkpoint) error {
	if uint64(len(ck.Tail)) > ck.Delivered {
		return fmt.Errorf("delivery tail of %d entries ends at delivery %d", len(ck.Tail), ck.Delivered)
	}
	prev := stream.Time(0)
	for i, t := range ck.Rows {
		if err := s.admit(int(t.Source), len(t.Vals), t.TS); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if t.TS < prev || t.TS > ck.Cut {
			return fmt.Errorf("row %d: %w: ts %d after %d, cut %d", i, ErrTimeRange, t.TS, prev, ck.Cut)
		}
		if t.ID > ck.IngestHWM {
			return fmt.Errorf("row %d: id %d above the ingest high-water mark %d", i, t.ID, ck.IngestHWM)
		}
		prev = t.TS
	}
	return nil
}

// apply validates one decoded tuple frame in session order.
func (s *session) apply(f Frame) (*stream.Tuple, error) {
	ts := stream.Time(f.TS)
	if err := s.admit(f.Source, len(f.Vals), ts); err != nil {
		return nil, err
	}
	if f.ID <= s.resumeHWM {
		// Recovery replay: the tuple is already inside (or expired out of)
		// the restored state. Skip without error — this is the resume
		// protocol working, not a client bug.
		s.skipped++
		return nil, nil
	}
	if s.started && f.ID <= s.lastID {
		return nil, fmt.Errorf("%w: id %d after %d", ErrDuplicateID, f.ID, s.lastID)
	}
	if s.started && ts < s.maxTS-s.disorder {
		return nil, fmt.Errorf("%w: ts %d after max %d (bound %d)", ErrTimeRegress, ts, s.maxTS, s.disorder)
	}
	s.started = true
	s.lastID = f.ID
	if ts > s.maxTS {
		s.maxTS = ts
	}
	vals := make([]stream.Value, len(f.Vals))
	for i, v := range f.Vals {
		vals[i] = stream.Value(v)
	}
	return &stream.Tuple{ID: f.ID, Source: stream.SourceID(f.Source), TS: ts, Vals: vals}, nil
}
