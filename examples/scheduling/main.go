// Scheduling reproduces the Online Task Scheduling use case (§VI-C,
// Figure 6 middle): resource monitors publish power/utilization
// telemetry through Octopus; a FaaS scheduler consumes it to model each
// resource's energy envelope and place tasks. The demo compares
// telemetry-blind round-robin against the energy-aware policy on the
// same fleet and reports the estimated energy of each schedule.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

const tasks = 60

func main() {
	for _, policy := range []sched.Policy{sched.PolicyRoundRobin, sched.PolicyEnergyAware} {
		watts, placements := runPolicy(policy)
		fmt.Printf("%-13s estimated fleet draw %.0f W, placements %v\n", policy, watts, placements)
	}
	fmt.Println("\nthe energy-aware schedule avoids the power-hungry node (resource-02)")
}

func runPolicy(policy sched.Policy) (float64, map[string]int) {
	oct, err := core.Launch(core.Config{Brokers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer oct.Shutdown()
	admin, err := oct.Register("hpc-ops@uchicago.edu", "globus")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := oct.CreateTopic(admin, "telemetry", core.TopicOptions{Partitions: 3}); err != nil {
		log.Fatal(err)
	}
	tr := client.NewDirect(oct.Fabric)
	fleet := telemetry.NewFleet(3)
	p := client.NewProducer(tr, "telemetry", client.ProducerConfig{})
	defer p.Close()

	s, err := sched.New(tr, "telemetry", policy, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	for _, smp := range fleet.Samplers {
		s.RegisterResource(smp.Spec.Name, smp.Spec.Cores)
	}

	// Warm-up: several telemetry rounds at varying load let the
	// scheduler regress each resource's power envelope online.
	now := time.Now()
	for round := 0; round < 6; round++ {
		for _, smp := range fleet.Samplers {
			smp.SetRunning(round * smp.Spec.Cores / 6)
		}
		if err := sched.PublishSamples(p, fleet, now.Add(time.Duration(round)*time.Minute)); err != nil {
			log.Fatal(err)
		}
	}
	for _, smp := range fleet.Samplers {
		smp.SetRunning(0)
	}
	if err := sched.PublishSamples(p, fleet, now.Add(time.Hour)); err != nil {
		log.Fatal(err)
	}
	drainTelemetry(s, 7*len(fleet.Samplers))

	// Place the task burst; reflect placements back into the fleet so
	// the energy estimate is honest.
	for i := 0; i < tasks; i++ {
		r, err := s.Place()
		if err != nil {
			log.Fatal(err)
		}
		smp := fleet.ByName(r)
		smp.SetRunning(smp.Running() + 1)
	}
	return fleet.TotalPower(now.Add(2 * time.Hour)), s.Placements
}

func drainTelemetry(s *sched.Scheduler, want int) {
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < want && time.Now().Before(deadline) {
		n, err := s.Ingest()
		if err != nil {
			log.Fatal(err)
		}
		got += n
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if got < want {
		log.Fatalf("ingested %d of %d telemetry events", got, want)
	}
}
