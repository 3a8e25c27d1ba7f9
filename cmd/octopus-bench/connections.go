package main

import (
	"fmt"
	"os"

	"repro/internal/testbed"
)

// runConnBench measures the multiplexed fetch session at connection
// scale on this host — the operator-facing twin of the
// BenchmarkManyConnections CI gate, running the identical
// testbed.ConnScaleFixture: many connections each subscribed to many
// partitions, one server pump and one shared credit window per
// connection.
func runConnBench(conns int) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if conns < 1 {
		conns = 16
	}
	const parts, perPart, eventSize = 64, 200, 100
	fx, err := testbed.NewConnScaleFixture(conns, parts, perPart, eventSize)
	if err != nil {
		fail(err)
	}
	defer fx.Close()
	sess, err := fx.Run()
	if err != nil {
		fail(err)
	}

	t := &testbed.Table{
		Title: fmt.Sprintf("Fetch sessions at connection scale (%d connections x %d partitions, %d-byte events)",
			conns, parts, eventSize),
		Columns: []string{"Transport", "Goroutines/conn", "Serving/conn", "Allocs/event", "Drain (ev/s)"},
	}
	t.Add("multiplexed session", fmt.Sprintf("%.1f", sess.GoroutinesPerConn),
		fmt.Sprintf("%.1f", sess.ServingPerConn), fmt.Sprintf("%.2f", sess.AllocsPerEvent), int(sess.EventsPerSec))
	fmt.Println(t)
}
