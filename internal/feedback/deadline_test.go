package feedback

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stream"
)

// TestSharedDescriptorKeepsDeadlinesExact hands one descriptor to a buffer,
// a blacklist and a mark table, as a consumer and its producer share it, and
// then its later duplicate to each. The buffer raises the descriptor itself;
// the blacklist entry and the origin entry raise their own anchors. Every
// deadline must then read the duplicate's expiry, and nothing may be taken
// at the first one.
func TestSharedDescriptorKeepsDeadlinesExact(t *testing.T) {
	acct := &metrics.Account{}
	buf, bl, mt := NewBuffer(acct), NewBlacklist(acct), NewMarkTable(acct)
	m, dup := mnsA(7, 100), mnsA(7, 500)
	for _, d := range []*MNS{m, dup} {
		buf.Add(d, false)
		bl.Ensure(d)
		mt.ActivateOrigin(d, d.Sig.Sources())
	}
	if b, e, o := buf.NextExpiry(), bl.NextExpiry(), mt.NextExpiry(); b != 500 || e != 500 || o != 500 {
		t.Fatalf("deadlines after the duplicate: buffer %d, blacklist %d, mark table %d; want 500 each", b, e, o)
	}
	if n, exp, orig := buf.Purge(100, 0), bl.TakeExpired(100), mt.TakeExpired(100); n != 0 || len(exp) != 0 || len(orig) != 0 {
		t.Fatalf("taken at the superseded expiry: %d buffered, %d entries, %d origins", n, len(exp), len(orig))
	}
	if n, exp, orig := buf.Purge(500, 0), bl.TakeExpired(500), mt.TakeExpired(500); n != 1 || len(exp) != 1 || len(orig) != 1 {
		t.Fatalf("taken at the extended expiry: %d buffered, %d entries, %d origins", n, len(exp), len(orig))
	}
}

// TestExpiryMovesOnlyThroughExtend keeps every deadline cache exact
// (DESIGN.md §4): outside tests, no file under internal/ assigns to a field
// named Expiry. Constructors set it in composite literals; after that an
// anchor moves only through table.extend, which raises it through anchor()
// and invalidates the one cache that covers it.
func TestExpiryMovesOnlyThroughExtend(t *testing.T) {
	fset := token.NewFileSet()
	literals := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		isExpiry := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Expiry"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isExpiry(lhs) {
						t.Errorf("%s assigns to .Expiry: raise an anchor through its table's extend", fset.Position(lhs.Pos()))
					}
				}
			case *ast.IncDecStmt:
				if isExpiry(n.X) {
					t.Errorf("%s changes .Expiry: raise an anchor through its table's extend", fset.Position(n.Pos()))
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "Expiry" {
					literals++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if literals == 0 {
		t.Error("no composite literal sets Expiry: the audit is looking in the wrong place")
	}
}

// FuzzDeadlineCaches feeds one buffer, one blacklist and one mark table's
// origins random interleavings of shared descriptors and their duplicates, as
// a consumer hands them to its producers, and holds each structure to a map
// model of its own anchors: after every step its next expiry is the model's
// earliest, and every take removes exactly the elements the model has
// expired. The buffer's departures are held to a slice model of what it
// holds as well: every descriptor's Seen claim is the model's after every
// step — Guarding from an add that guards until the descriptor leaves, the
// taker's sequence less one or the opposite watermark after it, untouched by
// a duplicate. The mark table's pending pairs are held to a scan of a slice
// model as pairs are recorded under an origin, leave with it (taken or
// expired) and are purged by their own window: ParkedMinTS and Owing read
// the model's minima and count after every
// step. Each input byte is one operation: the high four bits pick it, the
// low two the key (four signatures), bits 2-3 an expiry, clock step or
// pair age, and bit 3 whether an add guards.
func FuzzDeadlineCaches(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x0c, 0x10, 0x20, 0x30, 0xac, 0x70, 0x80, 0x90})
	f.Add([]byte{0x11, 0x21, 0x0d, 0x11, 0x21, 0x31, 0xbc, 0x41, 0x51, 0x61, 0xcc, 0x70, 0x80})
	f.Add([]byte{0x02, 0x12, 0x22, 0x32, 0x0e, 0x12, 0x22, 0x32, 0xac, 0xac, 0x80, 0x90, 0x70})
	f.Add([]byte{0x19, 0x0d, 0x19, 0x41, 0x1d, 0x09, 0x19, 0xfc, 0x71, 0x1a, 0x42})
	f.Add([]byte{0x3c, 0x31, 0xd0, 0xd4, 0xd1, 0xd9, 0xac, 0xd0, 0xdd, 0x61, 0xe0, 0xfc, 0xd0, 0xe0, 0x90, 0xd0})
	f.Add([]byte{0x38, 0x3d, 0x32, 0xd8, 0xd5, 0xdc, 0xd2, 0xac, 0xd9, 0x9c, 0xe0, 0xcc, 0xd2, 0x62, 0xe0, 0xfc, 0x90})
	f.Add([]byte{0x31, 0x32, 0xd9, 0x30, 0x30, 0x30, 0x30, 0xd2, 0x62, 0xd1, 0x61})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const window = 30
		acct := &metrics.Account{}
		buf, bl, mt := NewBuffer(acct), NewBlacklist(acct), NewMarkTable(acct)
		// One model per table: key -> the anchor the table must hold. Key k's
		// signature is the single value k, which is what the model files by.
		mBuf, mBl, mOrig := map[stream.Value]stream.Time{}, map[stream.Value]stream.Time{}, map[stream.Value]stream.Time{}
		// The pending pairs each held origin has recorded: endpoint MinTS
		// and result TS.
		type pair struct{ minTS, ts stream.Time }
		mPend := map[stream.Value][]pair{}
		key := func(m *MNS) stream.Value { return m.Sig[0].Val }
		var cur [4]*MNS // the latest descriptor of each key, shared by whoever takes it
		now, ids := stream.Time(0), uint64(0)
		// held is the buffer's slice model, in insertion order; seen is every
		// descriptor's claim as the model has it.
		var held []*MNS
		var all []*MNS
		seen := map[*MNS]uint64{}
		leave := func(m *MNS, at uint64) {
			held = slices.DeleteFunc(held, func(h *MNS) bool { return h == m })
			if seen[m] == Guarding {
				seen[m] = at
			}
		}
		fresh := func(k int, delta stream.Time) {
			ids++
			cur[k] = mnsA(stream.Value(k), now+delta)
			cur[k].ID = ids
			all = append(all, cur[k])
		}
		file := func(model map[stream.Value]stream.Time, m *MNS) {
			if old, ok := model[key(m)]; !ok || m.Expiry > old {
				model[key(m)] = m.Expiry
			}
		}
		expired := func(model map[stream.Value]stream.Time) []stream.Value {
			var keys []stream.Value
			for k, e := range model {
				if e <= now {
					keys = append(keys, k)
					delete(model, k)
				}
			}
			slices.Sort(keys)
			return keys
		}
		keysOf := func(ms []*MNS) []stream.Value {
			var keys []stream.Value
			for _, m := range ms {
				keys = append(keys, key(m))
			}
			slices.Sort(keys)
			return keys
		}
		next := func(model map[stream.Value]stream.Time) stream.Time {
			if len(model) == 0 {
				return NoExpiry
			}
			return slices.Min(slices.Collect(maps.Values(model)))
		}
		for step, op := range ops {
			k, delta := int(op&3), []stream.Time{0, 5, 20, 60}[op>>2&3]
			seq := uint64(step + 1) // the opposite side's sequence at this step
			if cur[k] == nil {
				fresh(k, delta)
			}
			m := cur[k]
			switch op >> 4 {
			case 0: // a new descriptor: a duplicate wherever its key is held
				fresh(k, delta)
			case 1:
				guard := op&8 != 0
				if _, ok := mBuf[key(m)]; !ok {
					held = append(held, m)
					if guard {
						seen[m] = Guarding
					}
				}
				file(mBuf, m)
				buf.Add(m, guard)
			case 2:
				file(mBl, m)
				bl.Ensure(m)
			case 3:
				file(mOrig, m)
				mt.ActivateOrigin(m, m.Sig.Sources())
			case 4: // an opposite arrival carrying key k resumes its MNS
				_, holds := mBuf[key(m)]
				delete(mBuf, key(m))
				for _, h := range held {
					if key(h) == key(m) {
						leave(h, seq-1)
						break
					}
				}
				if got, _ := buf.Probe(comp(3, tpl(2, now, stream.Value(k))), seq); (len(got) == 1) != holds || len(got) > 1 {
					t.Fatalf("step %d: probe took %d, model holds key %t", step, len(got), holds)
				}
			case 5:
				_, held := mBl[key(m)]
				delete(mBl, key(m))
				if _, ok := bl.Take(m); ok != held {
					t.Fatalf("step %d: blacklist take %t, model %t", step, ok, held)
				}
			case 6:
				_, held := mOrig[key(m)]
				delete(mOrig, key(m))
				delete(mPend, key(m))
				if _, ok := mt.Take(m); ok != held {
					t.Fatalf("step %d: origin take %t, model %t", step, ok, held)
				}
			case 7:
				for _, h := range slices.Clone(held) {
					if mBuf[key(h)] <= now {
						leave(h, seq)
					}
				}
				if got, want := buf.Purge(now, seq), len(expired(mBuf)); got != want {
					t.Fatalf("step %d: buffer purged %d at %d, model %d", step, got, now, want)
				}
			case 8:
				var got []*MNS
				for _, e := range bl.TakeExpired(now) {
					got = append(got, e.MNS)
				}
				if got, want := keysOf(got), expired(mBl); !slices.Equal(got, want) {
					t.Fatalf("step %d: blacklist took %v at %d, model %v", step, got, now, want)
				}
			case 9:
				var got []*MNS
				for _, e := range mt.TakeExpired(now) {
					got = append(got, e.MNS)
				}
				if got, want := keysOf(got), expired(mOrig); !slices.Equal(got, want) {
					t.Fatalf("step %d: mark table took origins %v at %d, model %v", step, got, now, want)
				}
				for _, k := range keysOf(got) {
					delete(mPend, k)
				}
			case 13: // a suppressed pair joins under key k's origin, if held
				if _, held := mOrig[key(m)]; !held {
					break
				}
				i := slices.IndexFunc(mt.entries.list, func(e *OriginEntry) bool { return key(e.MNS) == key(m) })
				lts, rts := now-delta, now+stream.Time(step%7)
				l, r := comp(3, tpl(0, lts, 1)), comp(3, tpl(1, rts, 1))
				mt.RecordSuppressed(mt.entries.list[i], state.Entry{C: l}, state.Entry{C: r})
				mPend[key(m)] = append(mPend[key(m)], pair{min(lts, rts), max(lts, rts)})
			case 14: // pending pairs past their window are purged
				want := 0
				for k, ps := range mPend {
					kept := slices.DeleteFunc(ps, func(p pair) bool { return p.minTS+window <= now })
					want += len(ps) - len(kept)
					mPend[k] = kept
				}
				if got := len(mt.TakeClosed(now, window)); got != want {
					t.Fatalf("step %d: purged %d pending pairs at %d, model %d", step, got, now, want)
				}
			default: // the clock moves
				now += delta + 1
			}
			if got, want := buf.NextExpiry(), next(mBuf); got != want || buf.Len() != len(mBuf) || len(held) != len(mBuf) {
				t.Fatalf("step %d: buffer next %d len %d, model %d len %d (%d held)", step, got, buf.Len(), want, len(mBuf), len(held))
			}
			for _, m := range all {
				if m.Seen != seen[m] {
					t.Fatalf("step %d: descriptor %d claims Seen %d, model %d", step, m.ID, m.Seen, seen[m])
				}
			}
			if got, want := bl.NextExpiry(), next(mBl); got != want || bl.Len() != len(mBl) {
				t.Fatalf("step %d: blacklist next %d len %d, model %d len %d", step, got, bl.Len(), want, len(mBl))
			}
			if got, want := mt.NextExpiry(), next(mOrig); got != want || mt.Len() != len(mOrig) {
				t.Fatalf("step %d: mark table next %d with %d origins, model %d with %d",
					step, got, mt.Len(), want, len(mOrig))
			}
			n, lo, oldest := 0, NoExpiry, NoExpiry
			for _, ps := range mPend {
				for _, p := range ps {
					n, lo, oldest = n+1, min(lo, p.minTS), min(oldest, p.ts)
				}
			}
			gotLo, okLo := mt.ParkedMinTS()
			owed, owing := mt.Owing()
			if okLo != (n > 0) || n > 0 && gotLo != lo || owed != oldest || owing != n {
				t.Fatalf("step %d: pending min %d/%t, owing %d×%d; model min %d, oldest %d, %d pairs",
					step, gotLo, okLo, owing, owed, lo, oldest, n)
			}
		}
	})
}

// FuzzParkedCaches drives one blacklist through random interleavings of
// entries made and extended, tuples parked with random TS and MinTS, entries
// taken by resumption and by anchor expiry, and tuples taken by their own
// window, and holds the two parked-tuple caches to a scan of a slice model
// after every step: ParkedMinTS (the parked tuples' window deadline) and
// Owing (the blacklist's term in the graveyard floor, DESIGN.md §4).
// Each input byte is one operation: the high four bits pick it, the low two
// the entry (four signatures), bits 2-3 an age, expiry or clock step.
func FuzzParkedCaches(f *testing.F) {
	f.Add([]byte{0x0d, 0x11, 0x15, 0x19, 0x0c, 0x10, 0x1c, 0xf4, 0x40, 0xfc, 0x30, 0x21, 0x40})
	f.Add([]byte{0x0f, 0x0e, 0x13, 0x1b, 0x12, 0x1e, 0xf8, 0x40, 0x0e, 0x16, 0xfc, 0x40, 0x22, 0x30, 0x23})
	f.Add([]byte{0x0c, 0x0d, 0x0e, 0x0f, 0x1c, 0x1d, 0x1e, 0x1f, 0x10, 0x11, 0xf4, 0xf8, 0x40, 0x22, 0xfc, 0x30, 0x40})
	f.Add([]byte{0x0f, 0x0e, 0x13, 0x1e, 0x12, 0x22, 0x01, 0x1d, 0x11, 0xf0, 0x30, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const window = 50
		type parked struct {
			minTS, ts stream.Time
			seq       uint64
		}
		type entry struct {
			expiry stream.Time
			tuples []parked
		}
		bl := NewBlacklist(&metrics.Account{})
		model := map[stream.Value]*entry{}
		var cur [4]*MNS
		now, seq := stream.Time(100), uint64(0)
		count := func(es []*Entry) (n int) {
			for _, e := range es {
				n += len(e.Tuples)
			}
			return n
		}
		for step, op := range ops {
			k, d := stream.Value(op&3), []stream.Time{0, 5, 20, 60}[op>>2&3]
			switch op >> 4 {
			case 0: // a suspension under key k: a new entry, or a raised anchor
				cur[k] = mnsA(k, now+d)
				bl.Ensure(cur[k])
				if e := model[k]; e != nil {
					e.expiry = max(e.expiry, now+d)
				} else {
					model[k] = &entry{expiry: now + d}
				}
			case 1: // a tuple parked under key k: a pair whose parts are d and k ticks apart
				e, ok := bl.Entry(mnsA(k, 0))
				if !ok {
					continue
				}
				seq++
				old, young := now-d-stream.Time(k), now-d/2
				c := stream.Join(comp(2, tpl(0, old, k)), comp(2, tpl(1, young, k)))
				bl.Park(e, Suspended{E: state.Entry{C: c, Seq: seq}})
				model[k].tuples = append(model[k].tuples, parked{minTS: old, ts: young, seq: seq})
			case 2: // a resumption takes key k's entry
				e, ok := bl.Take(mnsA(k, 0))
				if m := model[k]; ok != (m != nil) || ok && len(e.Tuples) != len(m.tuples) {
					t.Fatalf("step %d: take %t, model %v", step, ok, m)
				}
				delete(model, k)
			case 3: // entries whose anchor expired
				want := 0
				for key, m := range model {
					if m.expiry <= now {
						want += len(m.tuples)
						delete(model, key)
					}
				}
				if got := count(bl.TakeExpired(now)); got != want {
					t.Fatalf("step %d: anchor expiry took %d tuples at %d, model %d", step, got, now, want)
				}
			case 4: // tuples whose own window closed
				want := 0
				for _, m := range model {
					kept := m.tuples[:0]
					for _, p := range m.tuples {
						if p.minTS+window <= now {
							want++
						} else {
							kept = append(kept, p)
						}
					}
					m.tuples = kept
				}
				if got := len(bl.TakeClosed(now, window)); got != want {
					t.Fatalf("step %d: window expiry took %d tuples at %d, model %d", step, got, now, want)
				}
			default: // the clock moves
				now += d + 1
			}
			n, minTS, ts := 0, NoExpiry, NoExpiry
			for _, m := range model {
				for _, p := range m.tuples {
					n++
					minTS, ts = min(minTS, p.minTS), min(ts, p.ts)
					if s := bl.BySeq(p.seq); s == nil || s.E.C.MinTS != p.minTS || s.E.C.TS != p.ts {
						t.Fatalf("step %d: BySeq(%d) = %v, model parks MinTS %d TS %d", step, p.seq, s, p.minTS, p.ts)
					}
				}
			}
			if got := numParked(bl); got != n {
				t.Fatalf("step %d: %d parked, model %d", step, got, n)
			}
			if got, ok := bl.ParkedMinTS(); ok != (n > 0) || ok && got != minTS {
				t.Fatalf("step %d: ParkedMinTS = %d, %t; model %d over %d tuples", step, got, ok, minTS, n)
			}
			if got, _ := bl.Owing(); got != ts {
				t.Fatalf("step %d: Owing = %d; model %d over %d tuples", step, got, ts, n)
			}
		}
	})
}
