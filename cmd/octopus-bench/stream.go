package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// runStreamBench compares the consume transports on this host, over an
// emulated 2 ms remote link: serial-ish request/response (no
// prefetch), the pipelined prefetching fetcher, and the credit-based
// server push of a fetch session. It is the operator-facing twin of
// the BenchmarkStreamingFetch CI gate.
func runStreamBench() {
	const total, eventSize, pollMax = 24000, 200, 500
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := f.CreateTopic("bench", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	evs := make([]event.Event, 400)
	for i := range evs {
		evs[i] = event.Event{Value: make([]byte, eventSize)}
	}
	for n := 0; n < total; n += len(evs) {
		if _, err := f.Produce("", "bench", 0, evs, broker.AcksLeader); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	srv := wire.NewServer(f)
	srv.AllowAnonymous = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	remote, stopProxy, err := testbed.DelayProxy(addr, time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProxy()

	consume := func(mask uint32, prefetch bool) float64 {
		c, err := wire.DialOptions(remote, wire.Options{Anonymous: true, PoolSize: 1, MaskFeatures: mask})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer c.Close()
		cons := client.NewConsumer(c, client.ConsumerConfig{
			Start: client.StartEarliest, Prefetch: prefetch,
			MaxPollEvents: pollMax, PollWait: 50 * time.Millisecond,
		})
		defer cons.Close()
		if err := cons.Assign("bench", 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		for got := 0; got < total; {
			polled, err := cons.Poll(pollMax)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			got += len(polled)
		}
		return float64(total) / time.Since(start).Seconds()
	}

	serial := consume(wire.FeatSessionFetch, false)
	pipelined := consume(wire.FeatSessionFetch, true)
	pushed := consume(0, true)
	t := &testbed.Table{
		Title:   fmt.Sprintf("Consume transports over an emulated 2 ms link (%d events of %d B)", total, eventSize),
		Columns: []string{"Transport", "Thru (ev/s)", "Speedup vs serial"},
	}
	t.Add("request/response", int(serial), "1.0x")
	t.Add("pipelined + prefetch (PR 2)", int(pipelined), fmt.Sprintf("%.1fx", pipelined/serial))
	t.Add("fetch session push", int(pushed), fmt.Sprintf("%.1fx", pushed/serial))
	fmt.Println(t)
}
