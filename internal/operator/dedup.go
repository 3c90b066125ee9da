package operator

import "repro/internal/stream"

// Dedup is the delivery gate of a run whose plan can be rebuilt and replayed
// underneath it — an adaptive migration (internal/adapt, DESIGN.md §7) or a
// checkpoint recovery (internal/serve, §10). Spliced between the plan root
// and the run's sink, or asked by the consumer that delivers (Admit), it
// passes each final result once: a composite whose canonical key
// (stream.Composite.Key) was already delivered is a replay regeneration and
// is absorbed. A run with no replay needs no gate.
//
// The delivered keys are held by minimum constituent timestamp: once that
// constituent leaves the window no replay can rebuild the result, so Prune
// may drop the entry.
type Dedup struct {
	next Consumer
	seen map[string]stream.Time // delivered key -> min constituent TS
	dups *uint64
	kept []seenEntry // Prune's survivors, reused from cut to cut
}

type seenEntry struct {
	key   string
	minTS stream.Time
}

// NewDedup builds a gate in front of next, counting absorbed regenerations
// into *dups.
func NewDedup(next Consumer, dups *uint64) *Dedup {
	return &Dedup{next: next, seen: make(map[string]stream.Time), dups: dups}
}

// Seed records a delivery a recovered checkpoint committed, so the recovery
// replay's regeneration of it is absorbed.
func (d *Dedup) Seed(key string, minTS stream.Time) { d.seen[key] = minTS }

// Consume implements Consumer: a result the gate admits goes on to next.
func (d *Dedup) Consume(c *stream.Composite, p Port) {
	if d.Admit(c.Key(), c.MinTS) {
		d.next.Consume(c, p)
	}
}

// Admit records a delivery by key and oldest constituent and reports whether
// it is the first; a repeat counts as an absorbed regeneration. A consumer
// that needs the key itself (the server's deliverer) builds it and asks here.
func (d *Dedup) Admit(key string, minTS stream.Time) bool {
	if _, ok := d.seen[key]; ok {
		*d.dups++
		return false
	}
	d.seen[key] = minTS
	return true
}

// Prune drops every entry whose oldest constituent left the window by the
// cut (MinTS + window <= cut) and, when survivor is not nil, reports each
// survivor in map order — the dedup seed a checkpoint at this cut carries:
// checkpoint.Encode sorts the seed, and a restore re-ingests it into a map.
//
// The map is rebuilt from the survivors rather than deleted from in place:
// under a served run's steady churn, deletes leave tombstones that make a Go
// map keep growing its tables long after its population has stopped growing,
// while clear keeps the tables and drops the tombstones.
func (d *Dedup) Prune(cut, window stream.Time, survivor func(key string, minTS stream.Time)) {
	//jitlint:allow maporder each key is judged on its own; the checkpointer's survivor callback collects a seed that checkpoint.Encode sorts
	for k, ts := range d.seen {
		if ts+window > cut {
			d.kept = append(d.kept, seenEntry{k, ts})
			if survivor != nil {
				survivor(k, ts)
			}
		}
	}
	clear(d.seen)
	for _, e := range d.kept {
		d.seen[e.key] = e.minTS
	}
	clear(d.kept) // drop the key references until the next cut
	d.kept = d.kept[:0]
}
