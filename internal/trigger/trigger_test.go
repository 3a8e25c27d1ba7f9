package trigger

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

func newFabric(t *testing.T, topic string, parts int) *broker.Fabric {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts, ReplicationFactor: 1}); err != nil {
		t.Fatal(err)
	}
	return f
}

func fastCfg(id, topic string) Config {
	return Config{
		ID:           id,
		Topic:        topic,
		EvalInterval: 5 * time.Millisecond,
	}
}

func produceJSON(t *testing.T, f *broker.Fabric, topic string, docs ...map[string]any) {
	t.Helper()
	evs := make([]event.Event, len(docs))
	for i, d := range docs {
		evs[i] = event.New("", d)
	}
	if _, err := f.Produce("", topic, -1, evs, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestTriggerInvokesOnEvents(t *testing.T) {
	f := newFabric(t, "t", 2)
	var mu sync.Mutex
	var got []string
	tr, err := New(f, fastCfg("tg", "t"), func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inv.Events {
			got = append(got, string(e.Value))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	produceJSON(t, f, "t",
		map[string]any{"n": 1},
		map[string]any{"n": 2},
		map[string]any{"n": 3})
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	}, "trigger delivery")
	st := tr.Stats()
	if st.EventsDelivered != 3 || st.Invocations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTriggerPatternFiltering reproduces the Listing 1 behavior: only
// file-creation events invoke the action.
func TestTriggerPatternFiltering(t *testing.T) {
	f := newFabric(t, "fs", 1)
	cfg := fastCfg("filter", "fs")
	cfg.PatternJSON = `{"value": {"event_type": ["created"]}}`
	var delivered sync.Map
	var mu sync.Mutex
	n := 0
	tr, err := New(f, cfg, func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inv.Events {
			doc, _ := e.JSON()
			delivered.Store(doc["value"].(map[string]any)["path"], true)
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	produceJSON(t, f, "fs",
		map[string]any{"value": map[string]any{"event_type": "created", "path": "/a"}},
		map[string]any{"value": map[string]any{"event_type": "modified", "path": "/b"}},
		map[string]any{"value": map[string]any{"event_type": "created", "path": "/c"}},
		map[string]any{"value": map[string]any{"event_type": "deleted", "path": "/d"}})
	waitFor(t, func() bool {
		return tr.Stats().EventsFiltered == 2
	}, "pattern filtering")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return n == 2
	}, "filtered delivery")
	if _, ok := delivered.Load("/a"); !ok {
		t.Fatal("/a not delivered")
	}
	if _, ok := delivered.Load("/b"); ok {
		t.Fatal("/b (modified) delivered despite filter")
	}
}

func TestTriggerRetriesThenDeadLetters(t *testing.T) {
	f := newFabric(t, "t", 1)
	cfg := fastCfg("retry", "t")
	cfg.MaxRetries = 2
	cfg.BatchWindow = time.Millisecond // the back-off between attempts
	var mu sync.Mutex
	attempts := 0
	tr, err := New(f, cfg, func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		return errors.New("downstream unavailable")
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	produceJSON(t, f, "t", map[string]any{"x": 1})
	waitFor(t, func() bool {
		return tr.Stats().DeadLettered == 1
	}, "dead letter")
	mu.Lock()
	defer mu.Unlock()
	if attempts != 3 { // initial + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestTriggerRecoversFromPanic(t *testing.T) {
	f := newFabric(t, "t", 1)
	cfg := fastCfg("panic", "t")
	cfg.MaxRetries = -1 // no retries: the panicking batch dead-letters
	var mu sync.Mutex
	calls := 0
	tr, err := New(f, cfg, func(inv *Invocation) error {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			panic("bad batch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	produceJSON(t, f, "t", map[string]any{"a": 1})
	waitFor(t, func() bool { return tr.Stats().DeadLettered == 1 }, "panic handled")
	// The runtime survives: later events still deliver.
	produceJSON(t, f, "t", map[string]any{"a": 2})
	waitFor(t, func() bool { return tr.Stats().EventsDelivered == 1 }, "post-panic delivery")
}

func TestTriggerBatchSize(t *testing.T) {
	f := newFabric(t, "t", 1)
	// Pre-populate, then start the trigger so batches fill.
	docs := make([]map[string]any, 10)
	for i := range docs {
		docs[i] = map[string]any{"i": i}
	}
	produceJSON(t, f, "t", docs...)
	cfg := fastCfg("batch", "t")
	cfg.BatchSize = 4
	var mu sync.Mutex
	var sizes []int
	tr, err := New(f, cfg, func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		sizes = append(sizes, len(inv.Events))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, func() bool { return tr.Stats().EventsDelivered == 10 }, "batched delivery")
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 4 {
			t.Fatalf("batch of %d exceeds limit 4 (sizes %v)", s, sizes)
		}
	}
}

func TestTriggerProgressSurvivesRestart(t *testing.T) {
	f := newFabric(t, "t", 1)
	cfg := fastCfg("resume", "t")
	var mu sync.Mutex
	var got []string
	act := func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inv.Events {
			got = append(got, string(e.Value))
		}
		return nil
	}
	tr, err := New(f, cfg, act)
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	produceJSON(t, f, "t", map[string]any{"phase": 1})
	waitFor(t, func() bool { return tr.Stats().EventsDelivered == 1 }, "first delivery")
	tr.Stop()
	// New instance with the same group resumes where the old one left off.
	tr2, err := New(f, cfg, act)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Start()
	defer tr2.Stop()
	produceJSON(t, f, "t", map[string]any{"phase": 2})
	waitFor(t, func() bool { return tr2.Stats().EventsDelivered == 1 }, "resumed delivery")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("deliveries = %v (duplicate or loss across restart)", got)
	}
}

func TestNextConcurrencyPolicy(t *testing.T) {
	// Scale-up path: 3 -> 128 within four evaluations with growth 3.5
	// and a deep backlog over 128 partitions (Figure 4).
	cur := 3
	var path []int
	for i := 0; i < 6; i++ {
		cur = NextConcurrency(cur, 5000, 1, 128, 1, 128, 3.5)
		path = append(path, cur)
	}
	if path[3] != 128 {
		t.Fatalf("did not reach 128 in four evaluations: %v", path)
	}
	// Scale-down path: small backlog snaps down to what is needed.
	if got := NextConcurrency(128, 10, 1, 128, 1, 128, 3.5); got != 10 {
		t.Fatalf("scale down = %d, want 10", got)
	}
	// Idle snaps to minimum.
	if got := NextConcurrency(64, 0, 1, 128, 3, 128, 3.5); got != 3 {
		t.Fatalf("idle = %d, want 3", got)
	}
	// Never exceeds partitions.
	if got := NextConcurrency(1, 1e6, 1, 8, 1, 128, 3.5); got > 8 {
		t.Fatalf("exceeded partitions: %d", got)
	}
	// Steady state unchanged.
	if got := NextConcurrency(5, 5, 1, 128, 1, 128, 3.5); got != 5 {
		t.Fatalf("steady = %d", got)
	}
}

func TestTriggerAutoscalesUnderPressure(t *testing.T) {
	f := newFabric(t, "t", 8)
	cfg := fastCfg("scale", "t")
	cfg.BatchSize = 1
	cfg.MinConcurrency = 1
	cfg.MaxConcurrency = 8
	cfg.EvalInterval = 2 * time.Millisecond
	block := make(chan struct{})
	tr, err := New(f, cfg, func(inv *Invocation) error {
		<-block // hold invocations open to keep backlog high
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]map[string]any, 64)
	for i := range docs {
		docs[i] = map[string]any{"i": i}
	}
	produceJSON(t, f, "t", docs...)
	tr.Start()
	waitFor(t, func() bool {
		return tr.Stats().Concurrency == 8
	}, "scale up to 8")
	close(block)
	waitFor(t, func() bool {
		return tr.Stats().Backlog == 0
	}, "drain")
	tr.Stop()
	if tr.ConcurrencySeries.MaxValue() != 8 {
		t.Fatalf("concurrency series max = %v", tr.ConcurrencySeries.MaxValue())
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFabric(t, "t", 1)
	if _, err := New(f, Config{Topic: "t"}, func(*Invocation) error { return nil }); err == nil {
		t.Fatal("missing ID accepted")
	}
	if _, err := New(f, Config{ID: "x"}, func(*Invocation) error { return nil }); err == nil {
		t.Fatal("missing topic accepted")
	}
	if _, err := New(f, Config{ID: "x", Topic: "ghost"}, func(*Invocation) error { return nil }); err == nil {
		t.Fatal("missing topic in fabric accepted")
	}
	if _, err := New(f, Config{ID: "x", Topic: "t"}, nil); err == nil {
		t.Fatal("nil action accepted")
	}
	if _, err := New(f, Config{ID: "x", Topic: "t", PatternJSON: "{bad"}, func(*Invocation) error { return nil }); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestRuntimeDeployLifecycle(t *testing.T) {
	f := newFabric(t, "t", 1)
	rt := NewRuntime(f)
	var mu sync.Mutex
	count := 0
	rt.RegisterAction("count", func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		count += len(inv.Events)
		return nil
	})
	if _, err := rt.Deploy(fastCfg("a", "t"), "nope"); !errors.Is(err, ErrNoAction) {
		t.Fatalf("unknown action: %v", err)
	}
	tr, err := rt.Deploy(fastCfg("a", "t"), "count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Deploy(fastCfg("a", "t"), "count"); !errors.Is(err, ErrTriggerExists) {
		t.Fatalf("duplicate deploy: %v", err)
	}
	if got, err := rt.Get("a"); err != nil || got != tr {
		t.Fatalf("get: %v", err)
	}
	if ids := rt.List(); len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("list = %v", ids)
	}
	produceJSON(t, f, "t", map[string]any{"x": 1})
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	}, "deployed trigger ran")
	if err := rt.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get("a"); !errors.Is(err, ErrNoTrigger) {
		t.Fatalf("after remove: %v", err)
	}
	if err := rt.Remove("a"); !errors.Is(err, ErrNoTrigger) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestRuntimeUpdatePreservesProgress(t *testing.T) {
	f := newFabric(t, "t", 1)
	rt := NewRuntime(f)
	defer rt.StopAll()
	var mu sync.Mutex
	var got []string
	rt.RegisterAction("collect", func(inv *Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inv.Events {
			got = append(got, string(e.Value))
		}
		return nil
	})
	if _, err := rt.Deploy(fastCfg("u", "t"), "collect"); err != nil {
		t.Fatal(err)
	}
	produceJSON(t, f, "t", map[string]any{"phase": 1})
	waitFor(t, func() bool {
		tr, _ := rt.Get("u")
		return tr.Stats().EventsDelivered == 1
	}, "pre-update delivery")
	// Update batch size; progress must not rewind.
	if _, err := rt.Update("u", func(c *Config) { c.BatchSize = 7 }); err != nil {
		t.Fatal(err)
	}
	tr, _ := rt.Get("u")
	if tr.Config().BatchSize != 7 {
		t.Fatalf("batch size = %d", tr.Config().BatchSize)
	}
	produceJSON(t, f, "t", map[string]any{"phase": 2})
	waitFor(t, func() bool { return tr.Stats().EventsDelivered == 1 }, "post-update delivery")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestRuntimeStopAll(t *testing.T) {
	f := newFabric(t, "t", 1)
	rt := NewRuntime(f)
	rt.RegisterAction("noop", func(*Invocation) error { return nil })
	for i := 0; i < 3; i++ {
		if _, err := rt.Deploy(fastCfg(fmt.Sprintf("t%d", i), "t"), "noop"); err != nil {
			t.Fatal(err)
		}
	}
	rt.StopAll() // must not hang or panic
}
