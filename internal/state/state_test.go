package state

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

func comp(id uint64, ts stream.Time) *stream.Composite {
	return stream.NewComposite(1, &stream.Tuple{ID: id, Source: 0, TS: ts, Vals: []stream.Value{1}})
}

// put stores c the way core does: the sequence number is drawn from the side
// first, then the entry is placed with Reinsert.
func put(st *State, side *Side, c *stream.Composite) Entry {
	e := Entry{C: c, Seq: side.Next()}
	st.Reinsert(e)
	return e
}

// take removes the entry holding exactly c.
func take(st *State, c *stream.Composite) (Entry, bool) {
	removed := st.RemoveIf(nil, func(x *stream.Composite) bool { return x == c })
	if len(removed) != 1 {
		return Entry{}, false
	}
	return removed[0], true
}

// seqsAfter lists, via a Walk of an unkeyed state's one run, the sequences
// strictly after the cursor.
func seqsAfter(st *State, after uint64) []uint64 {
	var seqs []uint64
	st.Walk(FNVOffset, after, func(e Entry) bool { seqs = append(seqs, e.Seq); return true })
	return seqs
}

func TestInsertPurge(t *testing.T) {
	acct := &metrics.Account{}
	side := &Side{}
	st := New("S", metrics.MemState, acct)
	for i := 1; i <= 5; i++ {
		put(st, side, comp(uint64(i), stream.Time(i*100)))
	}
	if st.Len() != 5 || acct.Live() == 0 {
		t.Fatalf("len=%d live=%d", st.Len(), acct.Live())
	}
	// window 250: at now=500, tuples with ts <= 250 expire (ts+w <= now).
	var gone []uint64
	purged := st.Purge(500, 250, func(e Entry) { gone = append(gone, e.Seq) })
	if purged != 2 || st.Len() != 3 || !slices.Equal(gone, []uint64{1, 2}) {
		t.Fatalf("purged=%d (%v) len=%d", purged, gone, st.Len())
	}
	// Accounting balances when everything is purged.
	st.Purge(10000, 1, nil)
	if acct.Live() != 0 {
		t.Fatalf("leaked %d bytes", acct.Live())
	}
}

func TestSequenceStability(t *testing.T) {
	acct := &metrics.Account{}
	side := &Side{}
	st := New("S", metrics.MemState, acct)
	e1 := put(st, side, comp(1, 10))
	e2 := put(st, side, comp(2, 20))
	if e1.Seq >= e2.Seq {
		t.Fatal("sequence not monotonic")
	}
	if side.Watermark() != e2.Seq {
		t.Fatal("watermark wrong")
	}
	// Remove and reinsert preserves seq and order.
	got, ok := take(st, e1.C)
	if !ok || got.Seq != e1.Seq {
		t.Fatal("remove lost the seq")
	}
	st.Reinsert(got)
	var entries []Entry
	st.Scan(func(e Entry) bool { entries = append(entries, e); return true })
	if len(entries) != 2 || entries[0].Seq != e1.Seq || entries[1].Seq != e2.Seq {
		t.Fatalf("reinsert broke order: %v", entries)
	}
}

func TestScanAfterAndIndexAfter(t *testing.T) {
	acct := &metrics.Account{}
	st, side := New("S", metrics.MemState, acct), &Side{}
	var seqs []uint64
	for i := 1; i <= 10; i++ {
		e := put(st, side, comp(uint64(i), stream.Time(i)))
		seqs = append(seqs, e.Seq)
	}
	// A walk from a cursor visits exactly the entries past it: five after the
	// fifth, all from 0, none after the last; Holds finds each by number.
	if !slices.Equal(seqsAfter(st, seqs[4]), seqs[5:]) || !slices.Equal(seqsAfter(st, 0), seqs) || len(seqsAfter(st, seqs[9])) != 0 {
		t.Fatal("Walk from a cursor wrong")
	}
	var fifth Entry
	st.Scan(func(e Entry) bool { fifth = e; return e.Seq != seqs[4] })
	if !st.Holds(fifth) || fifth.C.Comp(0).ID != 5 {
		t.Fatalf("Holds(%v) = false", fifth)
	}
	if st.Holds(Entry{C: fifth.C, Seq: seqs[9] + 1}) {
		t.Fatal("Holds found a sequence never stored")
	}
	// Early stop.
	n := 0
	st.Scan(func(Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scan did not stop early: %d", n)
	}
}

func TestRemoveIfAndVersion(t *testing.T) {
	acct := &metrics.Account{}
	st, side := New("S", metrics.MemState, acct), &Side{}
	for i := 1; i <= 6; i++ {
		put(st, side, comp(uint64(i), stream.Time(i)))
	}
	// The removal happens under a walk's feet, after it visited seq 1: the
	// version bump makes the walk re-find its place, so it goes on to exactly
	// the survivors past 1 instead of indexing into the shrunk slice.
	var removed []Entry
	var walked []uint64
	st.Walk(FNVOffset, 0, func(e Entry) bool {
		walked = append(walked, e.Seq)
		if e.Seq == 1 {
			removed = st.RemoveIf(nil, func(c *stream.Composite) bool { return c.Comp(0).ID%2 == 0 })
		}
		return true
	})
	if len(removed) != 3 || st.Len() != 3 {
		t.Fatalf("removed=%d len=%d", len(removed), st.Len())
	}
	if !slices.Equal(walked, []uint64{1, 3, 5}) {
		t.Fatalf("walk across a re-entrant removal visited %v, want [1 3 5]", walked)
	}
	// Order preserved among both.
	for i := 1; i < len(removed); i++ {
		if removed[i-1].Seq >= removed[i].Seq {
			t.Fatal("removed order broken")
		}
	}
}

// TestRandomizedAccounting stresses insert/remove/purge cycles and checks
// the byte accounting never drifts.
func TestRandomizedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acct := &metrics.Account{}
	st, side := New("S", metrics.MemState, acct), &Side{}
	live := map[*stream.Composite]bool{}
	now := stream.Time(0)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			now += stream.Time(rng.Intn(5))
			c := comp(uint64(i), now)
			put(st, side, c)
			live[c] = true
		case 1:
			st.Purge(now, 50, nil)
		case 2:
			for c := range live {
				take(st, c)
				delete(live, c)
				break
			}
		}
	}
	st.Purge(now+10000, 1, nil)
	if acct.Live() != 0 {
		t.Fatalf("accounting drifted: %d bytes live", acct.Live())
	}
}
