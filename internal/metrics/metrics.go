// Package metrics provides the measurement substrate for the experiments:
// deterministic cost-unit counters (machine-independent analogue of the
// paper's CPU seconds) and exact live-byte accounting with peak tracking
// (analogue of the paper's peak memory consumption).
//
// A Counters value is a ledger with one writer. Each join operator owns one,
// a plan keeps one more for what no operator owns (plan.Built.RunLedger), and
// every wider figure — a plan's totals, a sharded fleet's — is a sum of
// ledgers (Add), every narrower one — a sampling interval, a decision epoch —
// a difference of two readings (Sub). Nothing is counted twice to be read in
// two places (DESIGN.md §9).
//
// An Account likewise has one owner, the plan, for the whole run: a migration
// builds its new operators on the same account while the retired ones' bytes
// are still charged, and frees those after the replay (DESIGN.md §7), so the
// peak spans the handoff without any transfer between accounts.
package metrics

import (
	"fmt"
	"strings"
)

// Counters accumulates the deterministic work units performed by one
// operator, one plan or one run. The relative magnitudes across a parameter
// sweep reproduce the shape of the paper's CPU-time figures without depending
// on the host machine.
type Counters struct {
	// Probes counts state probes: one per (incoming tuple, opposite state)
	// scan initiated.
	Probes uint64
	// Comparisons counts predicate evaluations between tuple pairs.
	Comparisons uint64
	// Results counts composites constructed (intermediate or final).
	Results uint64
	// FinalResults counts composites delivered to the sink.
	FinalResults uint64
	// Inserted counts tuples inserted into operator states.
	Inserted uint64
	// Purged counts tuples removed from states by window expiry.
	Purged uint64
	// LatticeNodes counts CNS lattice node evaluations in Identify_MNS.
	LatticeNodes uint64
	// BloomChecks counts Bloom filter membership tests.
	BloomChecks uint64
	// MNSDetected counts MNSs reported by consumers.
	MNSDetected uint64
	// Feedbacks counts feedback messages sent (all commands).
	Feedbacks uint64
	// Suspended counts tuples moved into blacklists.
	Suspended uint64
	// Resumed counts tuples reactivated out of blacklists.
	Resumed uint64
	// CatchUpJoins counts the pairs a recovery evaluates — a resumption's
	// catch-up, an unmark's suppressed pairs, a late input's graveyard
	// probe — that lie within one window span: a pair REF never formed is
	// not charged.
	CatchUpJoins uint64
	// SuppressedPairs counts probe pairs skipped due to suspension marks.
	SuppressedPairs uint64
	// QueueOps is charged by nothing: the pipelined engine has no
	// inter-operator queues, and no code has incremented it since the seed
	// commit. Kept because bench/jitperf reads it.
	QueueOps uint64
	// Sweeps counts operator expiry sweeps fired by the engine. Not part of
	// CostUnits (the work a sweep performs is already charged through
	// Purged/Resumed/...); it measures scheduling overhead — the deadline
	// heap exists to drive this toward the number of sweeps that actually
	// have work to do (DESIGN.md §4).
	Sweeps uint64
	// Migrations counts mid-run plan-shape migrations performed by the
	// adaptive re-optimizer (internal/adapt, DESIGN.md §7). The replay work a
	// migration performs is charged through the ordinary counters above.
	Migrations uint64
	// AdaptUnits is the cost (in CostUnits terms) of the re-optimizer's
	// shadow scoring: the throwaway candidate-plan replays run at each
	// decision epoch. Charged into CostUnits so adaptive runs carry their
	// own decision overhead honestly.
	AdaptUnits uint64
	// MigrationDups counts deliveries suppressed by the migration dedup tap:
	// results the reshaped tree regenerated during replay (or re-delivered
	// after it) that the run had already emitted (DESIGN.md §7).
	MigrationDups uint64
	// LateDropped counts tuples that arrived behind the engine's disorder
	// watermark (TS < maxSeenTS - bound) and were dropped before ingestion
	// (DESIGN.md §8). Conservation invariant: every arrival is either
	// processed or counted here — never silently lost.
	LateDropped uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Probes += o.Probes
	c.Comparisons += o.Comparisons
	c.Results += o.Results
	c.FinalResults += o.FinalResults
	c.Inserted += o.Inserted
	c.Purged += o.Purged
	c.LatticeNodes += o.LatticeNodes
	c.BloomChecks += o.BloomChecks
	c.MNSDetected += o.MNSDetected
	c.Feedbacks += o.Feedbacks
	c.Suspended += o.Suspended
	c.Resumed += o.Resumed
	c.CatchUpJoins += o.CatchUpJoins
	c.SuppressedPairs += o.SuppressedPairs
	c.QueueOps += o.QueueOps
	c.Sweeps += o.Sweeps
	c.Migrations += o.Migrations
	c.AdaptUnits += o.AdaptUnits
	c.MigrationDups += o.MigrationDups
	c.LateDropped += o.LateDropped
}

// Sub returns c − prev field-wise: the work done between two readings of one
// ledger. The obs sampler's interval deltas and the adaptive controller's
// epoch signal (internal/adapt) are both this difference.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Probes:          c.Probes - prev.Probes,
		Comparisons:     c.Comparisons - prev.Comparisons,
		Results:         c.Results - prev.Results,
		FinalResults:    c.FinalResults - prev.FinalResults,
		Inserted:        c.Inserted - prev.Inserted,
		Purged:          c.Purged - prev.Purged,
		LatticeNodes:    c.LatticeNodes - prev.LatticeNodes,
		BloomChecks:     c.BloomChecks - prev.BloomChecks,
		MNSDetected:     c.MNSDetected - prev.MNSDetected,
		Feedbacks:       c.Feedbacks - prev.Feedbacks,
		Suspended:       c.Suspended - prev.Suspended,
		Resumed:         c.Resumed - prev.Resumed,
		CatchUpJoins:    c.CatchUpJoins - prev.CatchUpJoins,
		SuppressedPairs: c.SuppressedPairs - prev.SuppressedPairs,
		QueueOps:        c.QueueOps - prev.QueueOps,
		Sweeps:          c.Sweeps - prev.Sweeps,
		Migrations:      c.Migrations - prev.Migrations,
		AdaptUnits:      c.AdaptUnits - prev.AdaptUnits,
		MigrationDups:   c.MigrationDups - prev.MigrationDups,
		LateDropped:     c.LateDropped - prev.LateDropped,
	}
}

// CostUnits collapses the counters into a single deterministic work figure.
// Weights approximate relative instruction costs: a comparison is the unit;
// constructing a result composite costs more (allocation + copy); lattice
// node evaluations and bloom checks are cheap; feedback handling carries a
// fixed overhead so that JIT's own bookkeeping is charged honestly.
func (c Counters) CostUnits() uint64 {
	return c.Comparisons*1 +
		c.Results*8 +
		c.Inserted*2 +
		c.Purged*2 +
		c.LatticeNodes*1 +
		c.BloomChecks*1 +
		c.Feedbacks*16 +
		c.Suspended*4 +
		c.Resumed*4 +
		c.CatchUpJoins*1 +
		c.QueueOps*1 +
		c.AdaptUnits*1
}

// String renders a compact multi-line report.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probes=%d cmp=%d results=%d final=%d ins=%d purge=%d\n",
		c.Probes, c.Comparisons, c.Results, c.FinalResults, c.Inserted, c.Purged)
	fmt.Fprintf(&b, "lattice=%d bloom=%d mns=%d fb=%d susp=%d res=%d catchup=%d suppressed=%d sweeps=%d cost=%d",
		c.LatticeNodes, c.BloomChecks, c.MNSDetected, c.Feedbacks, c.Suspended,
		c.Resumed, c.CatchUpJoins, c.SuppressedPairs, c.Sweeps, c.CostUnits())
	if c.Migrations > 0 || c.AdaptUnits > 0 {
		fmt.Fprintf(&b, "\nmigrations=%d adaptUnits=%d migrationDups=%d",
			c.Migrations, c.AdaptUnits, c.MigrationDups)
	}
	if c.LateDropped > 0 {
		fmt.Fprintf(&b, "\nlateDropped=%d", c.LateDropped)
	}
	return b.String()
}

// OpCounters is one operator's ledger under its name: the record a run
// reports per operator (engine.Result.Ops, `jitrun -stats`), the obs sampler
// cuts into intervals and the ops endpoint labels `op`. An operator is the
// only writer of its Counters, so a plan's totals are its run ledger plus the
// sum of these (plan.Built.Totals).
type OpCounters struct {
	Name     string
	Counters Counters
}

// MergeOps adds src into dst by operator name and returns dst: shard replicas
// share one shape, so names align; an unseen name (a migrated fleet's new
// operators) is appended in order of first appearance.
func MergeOps(dst, src []OpCounters) []OpCounters {
	for _, op := range src {
		i := 0
		for i < len(dst) && dst[i].Name != op.Name {
			i++
		}
		if i == len(dst) {
			dst = append(dst, op)
		} else {
			dst[i].Counters.Add(&op.Counters)
		}
	}
	return dst
}

// Mem names the structure a charge to an Account is for: the rows of the
// memory ledger.
type Mem uint8

// The memory ledger's rows.
const (
	MemState     Mem = iota // tuples stored in join states
	MemGraveyard            // exact mode's retired state entries (DESIGN.md §4)
	MemBlacklist            // parked tuples and their blacklist entries
	MemMNS                  // MNS buffers and origin descriptors
	MemPending              // pairs suppressed under a mark
	MemBloom                // Bloom filters over join states
	NumMem
)

var memNames = [NumMem]string{"state", "grave", "black", "mns", "pending", "bloom"}

// String names the structure: the ledger's and the /metrics `mem` label's
// spelling.
func (m Mem) String() string { return memNames[m] }

// MemLedger is an Account's live bytes split by structure.
type MemLedger [NumMem]int64

// Add accumulates o into l (a sharded fleet's ledgers sum, as its peaks do).
func (l *MemLedger) Add(o MemLedger) {
	for i, n := range o {
		l[i] += n
	}
}

// String renders the ledger in kilobytes, one name=value per structure.
func (l MemLedger) String() string {
	var b strings.Builder
	for i, n := range l {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fKB", memNames[i], float64(n)/1024)
	}
	return b.String()
}

// Account tracks live bytes attributed to stored stream data (operator
// states, graveyards, blacklists, MNS tables, suppressed pairs, Bloom
// filters) and records the peak. It replaces process-RSS measurement with an
// exact, GC-independent figure, matching what the paper's memory metric is
// dominated by. Every charge names its structure, and the account keeps the
// split at the peak beside the split now, so a peak can be read by what
// made it.
//
// A plan's account is split by operator too: each operator charges its own
// account (Op), which passes every charge on to the plan's, and the plan's
// keeps each operator's split at its peak beside its own.
type Account struct {
	live   int64
	peak   int64
	by     MemLedger
	atPeak MemLedger
	// up is the plan's account when this one is an operator's (Op), and name
	// the operator's; nil and "" for a plan's.
	up   *Account
	name string
	// ops are the operators' accounts Op made, in the order it made them, and
	// opsAtPeak their splits when the peak was set.
	ops       []*Account
	opsAtPeak []MemLedger
}

// OpMem is one operator's row of the memory ledger: its live bytes, or its
// bytes at its plan's peak, by structure.
type OpMem struct {
	Name string
	Mem  MemLedger
}

// Op returns the account of the operator called name, made on first use,
// whose every charge is also a charge to a. Keeping operators that are not
// one join apart is the caller's: a plan labels a migration's new tree apart
// from the retired one (plan.Built.Reshape, DESIGN.md §7).
func (a *Account) Op(name string) *Account {
	for _, o := range a.ops {
		if o.name == name {
			return o
		}
	}
	o := &Account{up: a, name: name}
	a.ops = append(a.ops, o)
	a.opsAtPeak = append(a.opsAtPeak, MemLedger{})
	return o
}

// Alloc charges n bytes of structure m to the account.
func (a *Account) Alloc(m Mem, n int64) {
	a.live += n
	a.by[m] += n
	if a.up != nil {
		a.up.Alloc(m, n)
		return
	}
	if a.live > a.peak {
		a.peak = a.live
		a.atPeak = a.by
		for i, o := range a.ops {
			a.opsAtPeak[i] = o.by
		}
	}
}

// Free releases n bytes of structure m. Freeing more than is live, overall
// or of that structure, indicates an accounting bug and panics, so tests
// catch it immediately.
func (a *Account) Free(m Mem, n int64) {
	a.live -= n
	a.by[m] -= n
	if a.live < 0 || a.by[m] < 0 {
		panic(fmt.Sprintf("metrics: account went negative (%d, %s %d, after freeing %d)", a.live, memNames[m], a.by[m], n))
	}
	if a.up != nil {
		a.up.Free(m, n)
	}
}

// FreeAll releases what LiveByOp read, operator by operator: the retired
// tree's bytes, freed once a migration's replay is done (DESIGN.md §7).
func (a *Account) FreeAll(ops []OpMem) {
	for _, op := range ops {
		o := a.Op(op.Name)
		for m, n := range op.Mem {
			o.Free(Mem(m), n)
		}
	}
}

// Live returns the currently charged bytes.
func (a *Account) Live() int64 { return a.live }

// LiveBy returns the currently charged bytes by structure.
func (a *Account) LiveBy() MemLedger { return a.by }

// LiveByOp returns each operator's currently charged bytes by structure, in
// the order Op made their accounts.
func (a *Account) LiveByOp() []OpMem {
	out := make([]OpMem, len(a.ops))
	for i, o := range a.ops {
		out[i] = OpMem{o.name, o.by}
	}
	return out
}

// Peak returns the high-water mark in bytes.
func (a *Account) Peak() int64 { return a.peak }

// PeakBy returns the split by structure when the high-water mark was set.
func (a *Account) PeakBy() MemLedger { return a.atPeak }

// PeakByOp returns each operator's split when the high-water mark was set,
// in the order Op made their accounts.
func (a *Account) PeakByOp() []OpMem {
	out := make([]OpMem, len(a.ops))
	for i, o := range a.ops {
		out[i] = OpMem{o.name, a.opsAtPeak[i]}
	}
	return out
}

// PeakKB returns the high-water mark in kilobytes, the paper's unit.
func (a *Account) PeakKB() float64 { return float64(a.peak) / 1024 }

// MergeOpMem adds src into dst by operator name and returns dst, as MergeOps
// does for the counters: a sharded fleet's peak split is the sum of its
// replicas'.
func MergeOpMem(dst, src []OpMem) []OpMem {
	for _, op := range src {
		i := 0
		for i < len(dst) && dst[i].Name != op.Name {
			i++
		}
		if i == len(dst) {
			dst = append(dst, op)
		} else {
			dst[i].Mem.Add(op.Mem)
		}
	}
	return dst
}
