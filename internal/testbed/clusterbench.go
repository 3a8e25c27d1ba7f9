package testbed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/clusternet"
	"repro/internal/event"
	"repro/internal/wire"
)

// ClusterRoutingFixture is the shared leader-direct-vs-proxied routing
// comparison: a multi-broker clusternet fabric with every broker
// behind its own emulated WAN link, plus the same fabric behind one
// unscoped listener reached through a forwarding hop (two chained
// links — what reaching a partition leader through a gateway broker
// costs). The BenchmarkLeaderDirectRouting CI gate and the
// operator-facing octopus-bench -cluster both run exactly this
// fixture, so the number the operator sees is the number CI gates.
type ClusterRoutingFixture struct {
	Cluster *clusternet.Cluster
	// Direct routes by OpMetadata and dials partition leaders through
	// their own links; Proxied funnels everything through the gateway.
	Direct  *wire.Client
	Proxied *wire.Client
	// Topic has 2x brokers partitions at replication factor 2, so
	// every broker leads some of them.
	Topic      string
	Partitions int
	// Workers serial producers each produce Rounds batches of Batch
	// per Run — round-trip-bound, the regime routing hops dominate.
	Workers, Rounds int
	Batch           []event.Event

	closers []func()
}

// NewClusterRoutingFixture builds the fixture over oneWay-delay links.
// Close releases every listener, proxy and client.
func NewClusterRoutingFixture(brokers, workers, rounds, batchEvents, eventSize int, oneWay time.Duration) (*ClusterRoutingFixture, error) {
	x := &ClusterRoutingFixture{
		Topic: "bench", Partitions: 2 * brokers,
		Workers: workers, Rounds: rounds,
	}
	fail := func(err error) (*ClusterRoutingFixture, error) {
		x.Close()
		return nil, err
	}
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(brokers, 2, 8); err != nil {
		return fail(err)
	}
	cnet, err := clusternet.Serve(f, clusternet.Options{
		AllowAnonymous: true,
		Advertise: func(id int, bound string) (string, error) {
			addr, stop, perr := DelayProxy(bound, oneWay)
			if perr != nil {
				return "", perr
			}
			x.closers = append(x.closers, stop)
			return addr, nil
		},
	})
	if err != nil {
		return fail(err)
	}
	x.Cluster = cnet
	x.closers = append(x.closers, cnet.Close)
	if _, err := f.CreateTopic(x.Topic, "", cluster.TopicConfig{Partitions: x.Partitions, ReplicationFactor: 2}); err != nil {
		return fail(err)
	}

	gw := wire.NewServer(f)
	gw.AllowAnonymous = true
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	x.closers = append(x.closers, gw.Close)
	hop, stop1, err := DelayProxy(gwAddr, oneWay)
	if err != nil {
		return fail(err)
	}
	x.closers = append(x.closers, stop1)
	gwRemote, stop2, err := DelayProxy(hop, oneWay)
	if err != nil {
		return fail(err)
	}
	x.closers = append(x.closers, stop2)

	if x.Direct, err = wire.DialOptions(cnet.Addr(0), wire.Options{Anonymous: true}); err != nil {
		return fail(err)
	}
	x.closers = append(x.closers, func() { x.Direct.Close() })
	if !x.Direct.RouterEnabled() {
		return fail(fmt.Errorf("testbed: leader-direct client did not enable metadata routing"))
	}
	if x.Proxied, err = wire.DialOptions(gwRemote, wire.Options{Anonymous: true, MaskFeatures: wire.FeatClusterMeta}); err != nil {
		return fail(err)
	}
	x.closers = append(x.closers, func() { x.Proxied.Close() })

	x.Batch = make([]event.Event, batchEvents)
	for i := range x.Batch {
		x.Batch[i] = event.Event{Value: make([]byte, eventSize)}
	}
	return x, nil
}

// Run drives the workload through one of the fixture's clients and
// returns its throughput in events/s: Workers goroutines, each
// producing Rounds batches serially to its own partition.
func (x *ClusterRoutingFixture) Run(c *wire.Client) (float64, error) {
	errs := make([]error, x.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < x.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < x.Rounds; r++ {
				if _, err := c.Produce("", x.Topic, w%x.Partitions, x.Batch, broker.AcksLeader); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(x.Workers*x.Rounds*len(x.Batch)) / time.Since(start).Seconds(), nil
}

// Close releases everything the fixture opened, in reverse order.
func (x *ClusterRoutingFixture) Close() {
	for i := len(x.closers) - 1; i >= 0; i-- {
		x.closers[i]()
	}
	x.closers = nil
}
