package serve

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/stream"
)

// TestGatedDeliveryBuildsOneKey pins that a durable server builds each
// delivered result's key once: the deliverer hands the same string to the
// dedup gate and the delivery ring, so a delivery through the gate costs no
// more allocations than the key itself. While the gate sat in front of the
// deliverer as a consumer of its own, each built the key, and a delivery
// cost twice the key's allocations.
func TestGatedDeliveryBuildsOneKey(t *testing.T) {
	const runs = 2000
	cs := make([]*stream.Composite, runs+2)
	for i := range cs {
		a := stream.NewComposite(2, &stream.Tuple{Source: 0, ID: uint64(2*i + 1)})
		b := stream.NewComposite(2, &stream.Tuple{Source: 1, ID: uint64(2*i + 2)})
		cs[i] = stream.Join(a, b)
	}
	var keep string
	perKey := testing.AllocsPerRun(runs, func() { keep = cs[0].Key() })

	var dups uint64
	d := &deliverer{
		sink: operator.NewSink(&metrics.Counters{}, false),
		hub:  newHub(64, SubKick, 0, nil),
		gate: operator.NewDedup(nil, &dups),
	}
	next := 0
	perDelivery := testing.AllocsPerRun(runs, func() {
		d.Consume(cs[next], operator.Left)
		next++
	})
	if d.seq != uint64(next) || dups != 0 {
		t.Fatalf("%d of %d distinct results delivered, %d absorbed", d.seq, next, dups)
	}
	if perDelivery > perKey {
		t.Errorf("a gated delivery allocates %v times, building its key %v: the key is built more than once", perDelivery, perKey)
	}
	t.Logf("key %q: %v allocations; gated delivery: %v", keep, perKey, perDelivery)
}
