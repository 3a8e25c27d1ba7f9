package sched

import (
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/telemetry"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func fixture(t *testing.T, policy Policy) (*broker.Fabric, *telemetry.Fleet, *client.Producer, *Scheduler) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("telemetry", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	tr := client.NewDirect(f)
	fleet := telemetry.NewFleet(3)
	p := client.NewProducer(tr, "telemetry", client.ProducerConfig{})
	t.Cleanup(func() { _ = p.Close() })
	s, err := New(tr, "telemetry", policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	for _, smp := range fleet.Samplers {
		s.RegisterResource(smp.Spec.Name, smp.Spec.Cores)
	}
	return f, fleet, p, s
}

func ingestAll(t *testing.T, s *Scheduler, want int) {
	t.Helper()
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < want && time.Now().Before(deadline) {
		n, err := s.Ingest()
		if err != nil {
			t.Fatal(err)
		}
		got += n
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if got < want {
		t.Fatalf("ingested %d of %d", got, want)
	}
}

func TestIngestBuildsViews(t *testing.T) {
	_, fleet, p, s := fixture(t, PolicyEnergyAware)
	fleet.Samplers[0].SetRunning(10)
	if err := PublishSamples(p, fleet, t0); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, 3)
	v, ok := s.View(fleet.Samplers[0].Spec.Name)
	if !ok {
		t.Fatal("no view")
	}
	if v.Running != 10 || v.PowerWatts <= 0 {
		t.Fatalf("view = %+v", v)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	_, fleet, p, s := fixture(t, PolicyRoundRobin)
	if err := PublishSamples(p, fleet, t0); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, 3)
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		r, err := s.Place()
		if err != nil {
			t.Fatal(err)
		}
		seen[r]++
	}
	for name, n := range seen {
		if n != 3 {
			t.Fatalf("round robin uneven: %s got %d", name, n)
		}
	}
}

func TestLeastLoadedPrefersIdle(t *testing.T) {
	_, fleet, p, s := fixture(t, PolicyLeastLoaded)
	fleet.Samplers[0].SetRunning(fleet.Samplers[0].Spec.Cores) // saturated
	fleet.Samplers[1].SetRunning(0)                            // idle
	fleet.Samplers[2].SetRunning(fleet.Samplers[2].Spec.Cores / 2)
	if err := PublishSamples(p, fleet, t0); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, 3)
	r, err := s.Place()
	if err != nil {
		t.Fatal(err)
	}
	if r != fleet.Samplers[1].Spec.Name {
		t.Fatalf("placed on %s, want idle resource", r)
	}
}

func TestEnergyAwareAvoidsPowerHungryNodes(t *testing.T) {
	_, fleet, p, s := fixture(t, PolicyEnergyAware)
	// Feed several rounds of telemetry at varying load so the scheduler
	// can regress each resource's power envelope.
	for round := 0; round < 5; round++ {
		for _, smp := range fleet.Samplers {
			smp.SetRunning(round * smp.Spec.Cores / 5)
		}
		if err := PublishSamples(p, fleet, t0.Add(time.Duration(round)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	for _, smp := range fleet.Samplers {
		smp.SetRunning(0)
	}
	if err := PublishSamples(p, fleet, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, 18)
	// Place a burst of tasks; the legacy power-hungry node (index 2,
	// 150->500 W) should receive the fewest.
	for i := 0; i < 30; i++ {
		if _, err := s.Place(); err != nil {
			t.Fatal(err)
		}
	}
	hungry := s.Placements["resource-02"]
	efficient := s.Placements["resource-00"] + s.Placements["resource-01"]
	if hungry >= efficient {
		t.Fatalf("energy-aware placed %d on the power-hungry node vs %d elsewhere", hungry, efficient)
	}
}

func TestPlaceWithoutResources(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("telemetry", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := New(client.NewDirect(f), "telemetry", PolicyRoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Place(); err != ErrNoResources {
		t.Fatalf("err = %v", err)
	}
}

func TestCompleteReleasesCapacity(t *testing.T) {
	_, fleet, p, s := fixture(t, PolicyRoundRobin)
	if err := PublishSamples(p, fleet, t0); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, 3)
	r, _ := s.Place()
	v, _ := s.View(r)
	before := v.Running
	s.Complete(r)
	v, _ = s.View(r)
	if v.Running != before-1 {
		t.Fatalf("running = %d, want %d", v.Running, before-1)
	}
	s.Complete(r) // extra completes never go negative
	s.Complete(r)
	v, _ = s.View(r)
	if v.Running < 0 {
		t.Fatal("running went negative")
	}
}

func TestIngestIgnoresMalformedEvents(t *testing.T) {
	f, _, _, s := fixture(t, PolicyRoundRobin)
	// Publish garbage alongside a valid-looking but incomplete event.
	garbage := []event.Event{
		{Value: []byte("not json at all")},
		{Value: []byte(`{"resource": ""}`)},
		{Value: []byte(`{"no_resource_field": 1}`)},
	}
	if _, err := f.Produce("", "telemetry", 0, garbage, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	n, err := s.Ingest() // no panic, garbage skipped
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ingested %d raw events", n)
	}
}
