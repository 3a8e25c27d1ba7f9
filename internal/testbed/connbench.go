package testbed

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/wire"
)

// ConnScaleFixture is the shared connection-scale measurement: many
// client connections, each consuming many partitions of one server
// over multiplexed fetch sessions (one server pump per connection
// regardless of partitions), measured for goroutine footprint and
// allocation cost. The BenchmarkManyConnections CI gate and the
// operator-facing octopus-bench -connections both run exactly this
// fixture.
type ConnScaleFixture struct {
	// Conns clients × Partitions subscriptions each, over a backlog of
	// PerPartition events per partition.
	Conns, Partitions, PerPartition int

	fabric *broker.Fabric
	srv    *wire.Server
	addr   string
}

// ConnScaleResult is one run's measurement.
type ConnScaleResult struct {
	// GoroutinesPerConn is the process goroutine count added per
	// connection with every subscription live (both endpoints are
	// in-process, so it charges the full client+server cost).
	GoroutinesPerConn float64
	// ServingPerConn is the subset added by the subscriptions alone —
	// the count that must not scale with partitions.
	ServingPerConn float64
	// AllocsPerEvent is the process-wide allocation count per consumed
	// event, minimum over rounds (the minimum is the clean signal:
	// background allocation only inflates a round).
	AllocsPerEvent float64
	// EventsPerSec is the single-client full-backlog drain throughput.
	EventsPerSec float64
}

// NewConnScaleFixture provisions the fabric, backlog, and listener.
func NewConnScaleFixture(conns, partitions, perPartition, eventSize int) (*ConnScaleFixture, error) {
	x := &ConnScaleFixture{Conns: conns, Partitions: partitions, PerPartition: perPartition}
	x.fabric = broker.NewFabric(nil)
	if err := x.fabric.AddBrokers(2, 2, 8); err != nil {
		return nil, err
	}
	if _, err := x.fabric.CreateTopic("cs", "", cluster.TopicConfig{Partitions: partitions}); err != nil {
		return nil, err
	}
	evs := make([]event.Event, perPartition)
	for i := range evs {
		evs[i] = event.Event{Value: make([]byte, eventSize)}
	}
	for p := 0; p < partitions; p++ {
		if _, err := x.fabric.Produce("", "cs", p, evs, broker.AcksLeader); err != nil {
			return nil, err
		}
	}
	x.srv = wire.NewServer(x.fabric)
	x.srv.AllowAnonymous = true
	addr, err := x.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	x.addr = addr
	return x, nil
}

// Addr is the fixture server's listen address.
func (x *ConnScaleFixture) Addr() string { return x.addr }

// Close releases the listener.
func (x *ConnScaleFixture) Close() {
	if x.srv != nil {
		x.srv.Close()
	}
}

// stableGoroutines samples the goroutine count until two consecutive
// readings agree (teardown and notify callbacks settle in
// milliseconds), returning the settled count.
func stableGoroutines() int {
	prev := -1
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
		time.Sleep(10 * time.Millisecond)
	}
	return prev
}

// Run dials Conns clients, opens every subscription, measures the
// goroutine footprint, drains the backlog through one client for
// allocation and throughput numbers, and then closes everything —
// verifying the process returns to its goroutine baseline (the leak
// gate rides along on every run).
func (x *ConnScaleFixture) Run() (ConnScaleResult, error) {
	var res ConnScaleResult
	g0 := stableGoroutines()

	clients := make([]*wire.Client, 0, x.Conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < x.Conns; i++ {
		c, err := wire.DialOptions(x.addr, wire.Options{Anonymous: true, PoolSize: 1})
		if err != nil {
			return res, err
		}
		clients = append(clients, c)
	}
	gConn := stableGoroutines()

	var buf broker.FetchBuffer
	for _, c := range clients {
		for p := 0; p < x.Partitions; p++ {
			if _, err := c.FetchBuffered("", "cs", p, 0, 16, 1<<20, &buf); err != nil {
				return res, err
			}
		}
	}
	gActive := stableGoroutines()
	res.GoroutinesPerConn = float64(gActive-g0) / float64(x.Conns)
	res.ServingPerConn = float64(gActive-gConn) / float64(x.Conns)

	// Drain the full backlog through one client, re-seeking each round.
	drain := func() (int, error) {
		n := 0
		for p := 0; p < x.Partitions; p++ {
			for off := int64(0); off < int64(x.PerPartition); {
				r, err := clients[0].FetchBufferedWait("", "cs", p, off, 100, 1<<20, 5*time.Second, &buf)
				if err != nil {
					return n, err
				}
				if len(r.Events) == 0 {
					return n, fmt.Errorf("testbed: empty fetch at p%d@%d", p, off)
				}
				off = r.Events[len(r.Events)-1].Offset + 1
				n += len(r.Events)
			}
		}
		return n, nil
	}
	if _, err := drain(); err != nil { // warm: pools, subs, routing
		return res, err
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		n, err := drain()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return res, err
		}
		if apc := float64(m1.Mallocs-m0.Mallocs) / float64(n); r == 0 || apc < res.AllocsPerEvent {
			res.AllocsPerEvent = apc
		}
		if thru := float64(n) / elapsed.Seconds(); thru > res.EventsPerSec {
			res.EventsPerSec = thru
		}
	}

	for _, c := range clients {
		c.Close()
	}
	clients = nil
	// The leak gate: all serving goroutines — pumps, read loops, both
	// sides — must return with the connections.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= g0+2 {
			return res, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return res, fmt.Errorf("testbed: %d goroutines after teardown, baseline %d — connection-scale serving leaked",
		runtime.NumGoroutine(), g0)
}
