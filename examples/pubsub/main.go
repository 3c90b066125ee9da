// Pubsub: publish/subscribe matching (the paper's third motivating domain,
// Sec. I) with a selection consumer — the Fig. 9a plan where the operator
// above the join is a filter, demonstrating permanent suspension feedback:
// when a partial result fails the subscription filter, the upstream join
// stops producing partial results for that publisher outright (no
// resumption can ever arrive, because the filter never changes).
//
// Run: go run ./examples/pubsub
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

func main() {
	cat := stream.NewCatalog()
	// Publications carry (topic, priority); subscriptions carry (topic).
	cat.MustAdd(stream.NewSchema("Pub", "topic", "prio"))
	cat.MustAdd(stream.NewSchema("Sub", "topic"))
	conj := predicate.Conj{{Left: 0, LCol: 0, Right: 1, RCol: 0}} // Pub.topic = Sub.topic

	ctr := &metrics.Counters{}
	acct := &metrics.Account{}
	var mnsID uint64
	nextMNS := func() uint64 { mnsID++; return mnsID }

	join := core.NewJoin(core.Config{
		Name: "Op1", NumSources: 2, Window: 3 * stream.Minute,
		Preds: conj, Mode: core.JIT(),
		Account: acct, NextMNS: nextMNS,
		LeftSources:  stream.SourceSet(0).Add(0),
		RightSources: stream.SourceSet(0).Add(1),
	})
	// Only high-priority matches (prio > 90) are delivered — the selection
	// consumer of Fig. 9a.
	sel := operator.NewSelection(
		predicate.Selection{Source: 0, Col: 1, Op: predicate.GT, Const: 90},
		join, ctr, true, nextMNS, 3*stream.Minute)
	join.SetConsumer(sel, operator.Left)
	sink := operator.NewSink(ctr, false)
	sel.SetConsumer(sink, operator.Left)

	cfg := source.Config{
		Horizon: 15 * stream.Minute,
		Seed:    11,
		Specs: []source.SourceSpec{
			{Rate: 4.0, DMax: 60, DMaxByCol: map[int]int64{1: 100}}, // pubs: topics 1..60, prio 1..100
			{Rate: 1.0, DMax: 60}, // subs
		},
	}
	// Events are pulled lazily from the generator — the hand-wired loop
	// below is what engine.RunStream does for plan-built topologies.
	next := source.Stream(cat, cfg)
	events := 0
	for t, ok := next(); ok; t, ok = next() {
		events++
		c := stream.NewComposite(2, t)
		if t.Source == 0 {
			join.Consume(c, operator.Left)
		} else {
			join.Consume(c, operator.Right)
		}
	}
	// The join keeps its own ledger; the selection and the sink share ctr.
	ctr.Add(join.Counters())
	fmt.Printf("pubsub: %d events processed\n", events)
	fmt.Printf("deliveries=%d composites=%d comparisons=%d\n",
		sink.Count(), ctr.Results, ctr.Comparisons)
	fmt.Printf("permanent suspensions from the filter: MNS detected=%d, suspended tuples=%d\n",
		ctr.MNSDetected, ctr.Suspended)
}
