package state

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

func comp(id uint64, ts stream.Time) *stream.Composite {
	return stream.NewComposite(1, &stream.Tuple{ID: id, Source: 0, TS: ts, Vals: []stream.Value{1}})
}

func TestInsertPurge(t *testing.T) {
	acct := &metrics.Account{}
	side := &Side{}
	st := New("S", side, acct)
	for i := 1; i <= 5; i++ {
		st.Insert(comp(uint64(i), stream.Time(i*100)))
	}
	if st.Len() != 5 || acct.Live() == 0 {
		t.Fatalf("len=%d live=%d", st.Len(), acct.Live())
	}
	// window 250: at now=500, tuples with ts <= 250 expire (ts+w <= now).
	purged := st.Purge(500, 250)
	if len(purged) != 2 || st.Len() != 3 {
		t.Fatalf("purged=%d len=%d", len(purged), st.Len())
	}
	// Accounting balances when everything is purged.
	st.Purge(10000, 1)
	if acct.Live() != 0 {
		t.Fatalf("leaked %d bytes", acct.Live())
	}
}

func TestSequenceStability(t *testing.T) {
	acct := &metrics.Account{}
	side := &Side{}
	st := New("S", side, acct)
	e1 := st.Insert(comp(1, 10))
	e2 := st.Insert(comp(2, 20))
	if e1.Seq >= e2.Seq {
		t.Fatal("sequence not monotonic")
	}
	if side.Watermark() != e2.Seq {
		t.Fatal("watermark wrong")
	}
	// Remove and reinsert preserves seq and order.
	got, ok := st.Remove(e1.C)
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
	st := New("S", &Side{}, acct)
	var seqs []uint64
	for i := 1; i <= 10; i++ {
		e := st.Insert(comp(uint64(i), stream.Time(i)))
		seqs = append(seqs, e.Seq)
	}
	if st.IndexAfter(seqs[4]) != 5 || st.IndexAfter(0) != 0 || st.IndexAfter(seqs[9]) != 10 {
		t.Fatal("IndexAfter wrong")
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
	st := New("S", &Side{}, acct)
	for i := 1; i <= 6; i++ {
		st.Insert(comp(uint64(i), stream.Time(i)))
	}
	v := st.Version()
	removed := st.RemoveIf(func(c *stream.Composite) bool { return c.Comp(0).ID%2 == 0 })
	if len(removed) != 3 || st.Len() != 3 {
		t.Fatalf("removed=%d len=%d", len(removed), st.Len())
	}
	if st.Version() == v {
		t.Fatal("version not bumped")
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
	st := New("S", &Side{}, acct)
	live := map[*stream.Composite]bool{}
	now := stream.Time(0)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			now += stream.Time(rng.Intn(5))
			c := comp(uint64(i), now)
			st.Insert(c)
			live[c] = true
		case 1:
			st.Purge(now, 50)
		case 2:
			for c := range live {
				st.Remove(c)
				delete(live, c)
				break
			}
		}
	}
	st.Purge(now+10000, 1)
	if acct.Live() != 0 {
		t.Fatalf("accounting drifted: %d bytes live", acct.Live())
	}
}
