package wfmon

import (
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

func steeringFixture(t *testing.T) (client.Transport, *client.Producer, *Steering) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("wf-mon", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	tr := client.NewDirect(f)
	p := client.NewProducer(tr, "wf-mon", client.ProducerConfig{})
	t.Cleanup(func() { _ = p.Close() })
	s, err := NewSteering(tr, "wf-mon")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return tr, p, s
}

func publish(t *testing.T, p *client.Producer, ev TaskEvent) {
	t.Helper()
	if err := p.Send(event.New("", ev)); err != nil {
		t.Fatal(err)
	}
}

func stepAll(t *testing.T, s *Steering) []Decision {
	t.Helper()
	var out []Decision
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ds, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds...)
		if len(ds) == 0 {
			return out
		}
	}
	return out
}

func TestSteeringRetriesFailedTasks(t *testing.T) {
	_, p, s := steeringFixture(t)
	publish(t, p, TaskEvent{Task: 7, Node: 1, Kind: "failure", Time: time.Now()})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := stepAll(t, s)
	if len(ds) != 1 || ds[0].Kind != "retry" || ds[0].Task != 7 {
		t.Fatalf("decisions = %+v", ds)
	}
	if s.RetryCount(7) != 1 {
		t.Fatalf("retry count = %d", s.RetryCount(7))
	}
}

func TestSteeringBoundsRetries(t *testing.T) {
	_, p, s := steeringFixture(t)
	s.MaxRetries = 2
	for i := 0; i < 5; i++ {
		publish(t, p, TaskEvent{Task: 3, Node: 0, Kind: "failure", Time: time.Now()})
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := stepAll(t, s)
	retries := 0
	for _, d := range ds {
		if d.Kind == "retry" {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want MaxRetries=2", retries)
	}
}

func TestSteeringBlacklistsStragglers(t *testing.T) {
	_, p, s := steeringFixture(t)
	// Nodes 0 and 1 complete tasks in 10 ms; node 2 takes 100 ms.
	task := 0
	for node := 0; node < 3; node++ {
		dur := 10.0
		if node == 2 {
			dur = 100.0
		}
		for i := 0; i < 6; i++ {
			publish(t, p, TaskEvent{Task: task, Node: node, Kind: "result", Duration: dur, Time: time.Now()})
			task++
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := stepAll(t, s)
	var blacklisted []int
	for _, d := range ds {
		if d.Kind == "blacklist" {
			blacklisted = append(blacklisted, d.Node)
		}
	}
	if len(blacklisted) != 1 || blacklisted[0] != 2 {
		t.Fatalf("blacklisted = %v, want [2]", blacklisted)
	}
	if !s.Blacklisted(2) || s.Blacklisted(0) {
		t.Fatal("blacklist state wrong")
	}
	// A node is blacklisted at most once.
	ds = stepAll(t, s)
	for _, d := range ds {
		if d.Kind == "blacklist" {
			t.Fatalf("duplicate blacklist: %+v", d)
		}
	}
}

func TestSteeringNeedsFleetContext(t *testing.T) {
	_, p, s := steeringFixture(t)
	// Only one node reporting: no straggler judgment possible.
	for i := 0; i < 10; i++ {
		publish(t, p, TaskEvent{Task: i, Node: 0, Kind: "result", Duration: 500, Time: time.Now()})
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, d := range stepAll(t, s) {
		if d.Kind == "blacklist" {
			t.Fatalf("blacklisted with no fleet baseline: %+v", d)
		}
	}
}

func TestSteeringIgnoresSparseNodes(t *testing.T) {
	_, p, s := steeringFixture(t)
	// Node 2 is slow but has too few samples to judge.
	for node := 0; node < 2; node++ {
		for i := 0; i < 6; i++ {
			publish(t, p, TaskEvent{Task: node*10 + i, Node: node, Kind: "result", Duration: 10, Time: time.Now()})
		}
	}
	publish(t, p, TaskEvent{Task: 99, Node: 2, Kind: "result", Duration: 1000, Time: time.Now()})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, d := range stepAll(t, s) {
		if d.Kind == "blacklist" && d.Node == 2 {
			t.Fatal("judged a node below MinSamples")
		}
	}
}

func TestSteeringEndToEndWithExecutor(t *testing.T) {
	tr, p, s := steeringFixture(t)
	// Run a real workload through the Octopus monitor, then inject a
	// failure event, and let steering react to the combined stream.
	m := NewOctopusMonitor(tr, "wf-mon")
	defer m.Close()
	Run(RunConfig{Tasks: 8, Nodes: 2, Workers: 4, TaskDuration: time.Millisecond}, m)
	ReportFailure(m, 5, 1, 0, time.Now())
	m.Flush()
	_ = p
	ds := stepAll(t, s)
	found := false
	for _, d := range ds {
		if d.Kind == "retry" && d.Task == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("steering missed the failure: %+v", ds)
	}
}
