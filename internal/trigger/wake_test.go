package trigger

import (
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// parkedCfg is a trigger whose fallback timer cannot help a test: any
// reaction inside the test's deadline is the wake path's.
func parkedCfg(id, topic string) Config {
	return Config{ID: id, Topic: topic, BatchWindow: 10 * time.Second}
}

// prompt is "well under BatchWindow, generous under -race".
const prompt = time.Second

// settle gives started or just-woken workers time to read their
// partitions dry and park; a round takes microseconds.
func settle() { time.Sleep(100 * time.Millisecond) }

// countingTrigger starts a trigger whose action signals every event.
func countingTrigger(t testing.TB, f *broker.Fabric, cfg Config) (*Trigger, <-chan struct{}) {
	t.Helper()
	got := make(chan struct{}, 1024)
	tr, err := New(f, cfg, func(inv *Invocation) error {
		for range inv.Events {
			got <- struct{}{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	return tr, got
}

func produceTo(t testing.TB, f *broker.Fabric, topic string, partition int) {
	t.Helper()
	if _, err := f.Produce("", topic, partition, []event.Event{{Value: []byte(`{"n":1}`)}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
}

func awaitEvent(t testing.TB, got <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-got:
	case <-time.After(prompt):
		t.Fatalf("%s: no delivery within %v (BatchWindow is 10 s)", what, prompt)
	}
}

func totalReads(t *testing.T, f *broker.Fabric, topic string, parts int) int64 {
	t.Helper()
	var n int64
	for p := 0; p < parts; p++ {
		l, err := f.LeaderLog(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		n += l.Reads()
	}
	return n
}

// TestAppendWakesIdleTrigger: delivery is driven by the append, not by
// the BatchWindow timer, on every partition a worker serves.
func TestAppendWakesIdleTrigger(t *testing.T) {
	const parts = 3
	f := newFabric(t, "t", parts)
	tr, got := countingTrigger(t, f, parkedCfg("wake", "t"))
	defer tr.Stop()
	for round := 0; round < 2; round++ {
		for p := 0; p < parts; p++ {
			settle()
			produceTo(t, f, "t", p)
			awaitEvent(t, got, "append to an idle trigger")
		}
	}
}

// TestIdleTriggerPerformsNoReads: a parked worker costs no log reads
// between appends, and an append costs a bounded few.
func TestIdleTriggerPerformsNoReads(t *testing.T) {
	const parts = 4
	f := newFabric(t, "t", parts)
	tr, got := countingTrigger(t, f, parkedCfg("idle", "t"))
	defer tr.Stop()
	produceTo(t, f, "t", 1)
	awaitEvent(t, got, "first delivery")
	settle()
	before := totalReads(t, f, "t", parts)
	time.Sleep(300 * time.Millisecond)
	if delta := totalReads(t, f, "t", parts) - before; delta != 0 {
		t.Fatalf("idle trigger performed %d log reads", delta)
	}
	produceTo(t, f, "t", 2)
	awaitEvent(t, got, "delivery after the idle period")
	settle()
	// The woken worker reads the batch, then goes round all four
	// partitions once more to find them dry.
	if delta := totalReads(t, f, "t", parts) - before; delta < 2 || delta > 2*parts {
		t.Fatalf("one append cost %d log reads, want 2..%d", delta, 2*parts)
	}
}

// TestStopWhileParkedReturnsPromptly: Stop does not wait out the timer.
func TestStopWhileParkedReturnsPromptly(t *testing.T) {
	f := newFabric(t, "t", 2)
	tr, _ := countingTrigger(t, f, parkedCfg("stop", "t"))
	settle()
	t0 := time.Now()
	tr.Stop()
	if d := time.Since(t0); d > prompt {
		t.Fatalf("Stop of a parked trigger took %v", d)
	}
}

// triggerGoroutines counts the live goroutines started by Trigger
// methods: workers, scale loops, and whatever else they might spawn. One
// still inside its final wg.Done is exiting — Stop has already returned
// on it — and is not counted, or a baseline taken just after the
// previous test's Stop could include it.
func triggerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by repro/internal/trigger.(*Trigger).") && !strings.Contains(g, "sync.(*WaitGroup).Done(") {
			n++
		}
	}
	return n
}

// TestResizeWhileParkedTakesEffectPromptly: when the scale loop replaces
// the worker set, parked workers of the old set exit at once and the new
// set serves.
func TestResizeWhileParkedTakesEffectPromptly(t *testing.T) {
	const parts = 4
	f := newFabric(t, "t", parts)
	// A backlog scales the pool up to one worker per partition.
	for i := 0; i < 16; i++ {
		produceTo(t, f, "t", i%parts)
	}
	cfg := parkedCfg("resize", "t")
	cfg.BatchSize = 1
	cfg.MaxConcurrency = parts
	cfg.EvalInterval = 5 * time.Millisecond
	hold := make(chan struct{})
	var delivered atomic.Int64
	base := triggerGoroutines()
	tr, err := New(f, cfg, func(inv *Invocation) error {
		<-hold
		delivered.Add(int64(len(inv.Events)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, func() bool { return tr.Stats().Concurrency == parts }, "scale up")
	close(hold)
	// Drained, every worker parks; the next evaluation shrinks the pool
	// to one worker, and the parked ones must not linger until their
	// 10 s timers: one worker and the scale loop remain.
	waitFor(t, func() bool { return tr.Stats().Concurrency == 1 }, "scale down")
	waitFor(t, func() bool { return triggerGoroutines()-base == 2 }, "retired workers to exit")
	// A batch in flight at a resize is delivered again by the new set
	// (at-least-once), so the count may exceed the backlog.
	if n := delivered.Load(); n < 16 {
		t.Fatalf("delivered %d of 16 backlog events", n)
	}
	// The replacement serves every partition.
	for p := 0; p < parts; p++ {
		before := delivered.Load()
		produceTo(t, f, "t", p)
		waitFor(t, func() bool { return delivered.Load() == before+1 }, "delivery after the resize")
	}
}

// TestNoGoroutinePerPartition: a worker parked on eight partitions is
// the same one goroutine as a worker parked on one.
func TestNoGoroutinePerPartition(t *testing.T) {
	counts := map[int]int{}
	for _, parts := range []int{1, 8} {
		f := newFabric(t, "t", parts)
		cfg := parkedCfg("parkers", "t")
		cfg.MaxConcurrency = 1
		base := triggerGoroutines()
		tr, _ := countingTrigger(t, f, cfg)
		settle()
		counts[parts] = triggerGoroutines() - base
		tr.Stop()
	}
	// The worker and the scale loop.
	if counts[1] != 2 || counts[8] != counts[1] {
		t.Fatalf("goroutines per trigger: %d with 1 partition, %d with 8; want 2 and 2", counts[1], counts[8])
	}
}

// TestLeaderChangeWhileParked: a worker parked on the old leader's log
// finds the new leader's by the fallback timer.
func TestLeaderChangeWhileParked(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	cfg := parkedCfg("failover", "t")
	cfg.BatchWindow = 50 * time.Millisecond
	tr, got := countingTrigger(t, f, cfg)
	defer tr.Stop()
	produceTo(t, f, "t", 0)
	awaitEvent(t, got, "delivery from the first leader")
	settle()
	old, err := f.PartitionLeader("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StopBroker(old); err != nil {
		t.Fatal(err)
	}
	if now, err := f.PartitionLeader("t", 0); err != nil || now == old {
		t.Fatalf("leader after stopping broker %d: %d, %v", old, now, err)
	}
	produceTo(t, f, "t", 0)
	awaitEvent(t, got, "delivery from the new leader")
	waitFor(t, func() bool { return tr.Stats().EventsDelivered == 2 }, "both deliveries accounted")
	if st := tr.Stats(); st.Skipped != 0 {
		t.Fatalf("stats after failover = %+v", st)
	}
}

// TestTriggerResumesPastRetention is the regression test for a trigger
// wedged below the log start: retention deletes the segment its
// committed offset points into while it is stopped; restarted, it
// resumes from what is left and reports exactly what it missed.
func TestTriggerResumesPastRetention(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 1, Retention: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cfg := parkedCfg("retained", "t")
	tr, got := countingTrigger(t, f, cfg)
	for i := 0; i < 3; i++ {
		produceTo(t, f, "t", 0)
		awaitEvent(t, got, "delivery before the stop")
	}
	tr.Stop()
	const committed = 3
	if off := f.Groups.Committed(tr.Config().Group, "t", 0); off != committed {
		t.Fatalf("committed offset = %d, want %d", off, committed)
	}
	// Fill the first segment past its 4 MiB so that it seals, let it
	// age past the retention, and sweep.
	big := make([]byte, 1<<20)
	for i := 0; i < 6; i++ {
		if _, err := f.Produce("", "t", 0, []event.Event{{Value: big}}, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if f.EnforceRetention() == 0 {
		t.Fatal("retention deleted nothing")
	}
	start, err := f.StartOffset("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := f.EndOffset("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if start <= committed || start >= end {
		t.Fatalf("log is [%d,%d) after the sweep; the test needs the start inside (%d,%d)", start, end, committed, end)
	}

	tr2, got2 := countingTrigger(t, f, cfg)
	defer tr2.Stop()
	for i := start; i < end; i++ {
		awaitEvent(t, got2, "delivery of a retained event")
	}
	produceTo(t, f, "t", 0)
	awaitEvent(t, got2, "delivery after the resume")
	waitFor(t, func() bool { return tr2.Stats().EventsDelivered == end-start+1 }, "deliveries accounted")
	st := tr2.Stats()
	if st.Skipped != start-committed || st.EventsDelivered != end-start+1 || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want %d skipped and %d delivered", st, start-committed, end-start+1)
	}
	if n := f.Metrics.Counter("trigger.retained.skipped").Value(); n != start-committed {
		t.Fatalf("trigger.retained.skipped = %d, want %d", n, start-committed)
	}
}

// BenchmarkTriggerWakeLatency times produce -> action on an idle
// single-partition trigger with the default BatchWindow: the in-process
// floor of the scoreboard's trigger_fsmon latency. ns/op includes the
// pause that lets the worker park again; the reported quantiles do not.
func BenchmarkTriggerWakeLatency(b *testing.B) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 1}); err != nil {
		b.Fatal(err)
	}
	tr, got := countingTrigger(b, f, Config{ID: "wake", Topic: "t"})
	defer tr.Stop()
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		time.Sleep(200 * time.Microsecond)
		t0 := time.Now()
		produceTo(b, f, "t", 0)
		<-got
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
}
