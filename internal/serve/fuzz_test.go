package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/stream"
)

// fuzzSession builds the session the fuzz target validates against: three
// sources of arities 1, 2, 3, a resume mark, and a little disorder slack.
func fuzzSession() *session {
	return &session{
		numSources: 3,
		arity:      func(id stream.SourceID) int { return int(id) + 1 },
		resumeHWM:  10,
		disorder:   2 * stream.Second,
	}
}

// sessionState is the comparable mirror of the session's mutable fields.
type sessionState struct {
	lastID  uint64
	maxTS   stream.Time
	started bool
	skipped uint64
}

func snapshotSession(s *session) sessionState {
	return sessionState{s.lastID, s.maxTS, s.started, s.skipped}
}

// FuzzIngestFrame is satellite 1: any byte sequence — malformed JSON,
// truncated frames, duplicate IDs, wrong arities — either decodes and
// validates into a tuple, or is rejected with a typed error that provably
// leaves the session untouched. Engine isolation is structural (serveIngest
// only enqueues non-nil apply results), so session-state immutability on
// rejection is the whole property.
func FuzzIngestFrame(f *testing.F) {
	// Seed corpus: every rejection class plus valid traffic.
	seeds := []string{
		`{"id":11,"source":0,"ts":1000,"vals":[1]}`,                 // valid
		`{"id":12,"source":1,"ts":2000,"vals":[1,2]}`,               // valid
		`{"id":13,"source":2,"ts":3000,"vals":[1,2,3]}`,             // valid
		`{"id":5,"source":0,"ts":1000,"vals":[1]}`,                  // <= resumeHWM: skip
		`{"id":11,"source":9,"ts":1000,"vals":[1]}`,                 // unknown source
		`{"id":11,"source":-1,"ts":1000,"vals":[1]}`,                // negative source
		`{"id":11,"source":0,"ts":1000,"vals":[1,2,3]}`,             // bad arity
		`{"id":11,"source":0,"ts":1000,"vals":[]}`,                  // bad arity (empty)
		`{"id":11,"source":0,"ts":-9999,"vals":[1]}`,                // duplicate id: refused before its ts is read
		`{"id":22,"source":0,"ts":1000,"vals":[1]}`,                 // big regression
		`{"id":22,"source":0,"ts":9223372036854775807,"vals":[1]}`,  // MaxInt64: out of range
		`{"id":22,"source":0,"ts":-9223372036854775808,"vals":[1]}`, // MinInt64: out of range
		`{not json`,                             // malformed
		``,                                      // empty line
		`{"id":11,"sorce":0,"ts":1,"vals":[1]}`, // unknown field
		`{"cmd":"eos"} {"cmd":"eos"}`,           // trailing data
		`{"cmd":"subscribe"}`,                   // command, not tuple
		`{"id":18446744073709551615,"source":0,"ts":1,"vals":[1]}`, // max uint64
		`[1,2,3]`,     // wrong JSON shape
		`"hello"`,     // wrong JSON shape
		`{"id":true}`, // wrong field type
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		sess := fuzzSession()
		// Warm the session so duplicate/regression paths are reachable.
		warm := []Frame{
			{ID: 20, Source: 0, TS: 10_000, Vals: []int64{1}},
			{ID: 21, Source: 1, TS: 11_000, Vals: []int64{2, 3}},
		}
		for _, w := range warm {
			if _, err := sess.apply(w); err != nil {
				t.Fatalf("warmup rejected: %v", err)
			}
		}
		before := snapshotSession(sess)

		fr, err := DecodeFrame(line)
		if err != nil {
			// Decode rejection: typed, and the session was never consulted.
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooLong) {
				t.Fatalf("decode error is untyped: %v", err)
			}
			if got := snapshotSession(sess); got != before {
				t.Fatalf("decode rejection touched the session: %+v -> %+v", before, got)
			}
			return
		}
		if fr.Cmd != "" {
			// Command frames are dispatched before apply in serveIngest.
			return
		}
		tup, err := sess.apply(fr)
		after := snapshotSession(sess)
		switch {
		case err != nil:
			// Rejection: state must be byte-for-byte untouched.
			if after != before {
				t.Fatalf("rejected frame mutated session: %+v -> %+v", before, after)
			}
			if tup != nil {
				t.Fatalf("rejected frame produced a tuple")
			}
		case tup == nil:
			// Resume skip: only the skip counter moves.
			want := before
			want.skipped++
			if after != want {
				t.Fatalf("skip changed more than the counter: %+v -> %+v", before, after)
			}
			if fr.ID > sess.resumeHWM {
				t.Fatalf("skipped a frame above the resume mark (id=%d)", fr.ID)
			}
		default:
			// Admitted: the monotonicity invariants the engine relies on.
			if tup.ID <= before.lastID {
				t.Fatalf("admitted non-increasing id %d after %d", tup.ID, before.lastID)
			}
			if after.lastID != tup.ID {
				t.Fatalf("lastID %d does not track admitted id %d", after.lastID, tup.ID)
			}
			if tup.TS < 0 || tup.TS > stream.MaxTime {
				t.Fatalf("admitted ts %d outside [0, %d]", tup.TS, stream.MaxTime)
			}
			if tup.TS < before.maxTS-sess.disorder {
				t.Fatalf("admitted ts %d beyond the disorder bound (max %d)", tup.TS, before.maxTS)
			}
			if after.maxTS < before.maxTS {
				t.Fatalf("maxTS went backwards: %d -> %d", before.maxTS, after.maxTS)
			}
			if want := sess.arity(tup.Source); len(tup.Vals) != want {
				t.Fatalf("admitted tuple with arity %d, catalog wants %d", len(tup.Vals), want)
			}
			// The admitted tuple is exactly what the frame declared.
			if uint64(tup.ID) != fr.ID || int(tup.Source) != fr.Source || int64(tup.TS) != fr.TS {
				t.Fatalf("tuple fields diverge from frame: %+v vs %+v", tup, fr)
			}
			for i, v := range fr.Vals {
				if int64(tup.Vals[i]) != v {
					t.Fatalf("value %d diverges: %d vs %d", i, tup.Vals[i], v)
				}
			}
		}
	})
}

// TestDecodeFrameCanonical pins a few decode behaviors the fuzz target
// assumes: strictness about unknown fields and trailing bytes, and that a
// decoded frame re-marshals to an equivalent frame.
func TestDecodeFrameCanonical(t *testing.T) {
	f, err := DecodeFrame([]byte(`{"id":7,"source":1,"ts":42,"vals":[1,2]}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	f2, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("re-decode %s: %v", b, err)
	}
	if f2.ID != f.ID || f2.Source != f.Source || f2.TS != f.TS || !bytes.Equal(int64sToJSON(f2.Vals), int64sToJSON(f.Vals)) {
		t.Fatalf("round-trip diverges: %+v vs %+v", f2, f)
	}
}

func int64sToJSON(v []int64) []byte {
	b, _ := json.Marshal(v)
	return b
}

// FuzzDeliveryLine holds the hand-appended delivery line to the encoding it
// replaced: for any sequence number, timestamp and key, appendDelivery
// writes exactly json.Marshal's bytes plus a newline, after whatever the
// buffer already held.
func FuzzDeliveryLine(f *testing.F) {
	seeds := []string{
		"0:3|1:9|2:11|3:14",     // a canonical key: the hand-written path
		"",                      // empty
		`say "hi"`,              // quotes
		`back\slash`,            // backslash
		"tab\there\nnl\x00\x1f", // control bytes
		"<b>&amp;</b>",          // HTML-escaped by encoding/json
		"caf\xc3\xa9",           // valid UTF-8, non-ASCII
		"bad\xff\xfeutf8",       // invalid UTF-8
		"\u2028\u2029",          // JSON-escaped line separators
		"\x7f",                  // DEL, not escaped
	}
	for i, s := range seeds {
		f.Add(uint64(i)*7919, int64(i)-5, s)
	}
	f.Add(uint64(1<<64-1), int64(-1<<63), "0:1")
	f.Fuzz(func(t *testing.T, seq uint64, ts int64, key string) {
		d := Delivery{Seq: seq, TS: stream.Time(ts), Key: key}
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		want = append([]byte("prefix\n"), append(want, '\n')...)
		if got := appendDelivery([]byte("prefix\n"), d); !bytes.Equal(got, want) {
			t.Fatalf("delivery line for %q:\ngot  %q\nwant %q", key, got, want)
		}
	})
}
