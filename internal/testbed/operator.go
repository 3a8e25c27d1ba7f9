package testbed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
)

// Operator is the benchmarking operator of §V-B: it orchestrates "the
// creation of topics with specific configurations (e.g., replication
// factor, number of partitions)" and spawns "the specified number of
// producers and consumers", then aggregates their logs into throughput
// and latency statistics. Unlike the modeled Table III, the Operator
// drives the real fabric — these are the numbers this repo actually
// measures on the host it runs on.
type Operator struct {
	Fabric *broker.Fabric
}

// NewOperator builds a fabric shaped like the given Table II cluster.
func NewOperator(spec model.ClusterSpec) (*Operator, error) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(spec.Brokers, spec.VCPUs(), spec.MemGB()); err != nil {
		return nil, err
	}
	return &Operator{Fabric: f}, nil
}

// RunSpec describes one operator experiment.
type RunSpec struct {
	Topic             string
	Partitions        int
	ReplicationFactor int
	Acks              broker.Acks
	EventSize         int
	Producers         int
	Consumers         int
	EventsPerProducer int
	// Remote wraps each client in the 46.5 ms RTT network profile.
	Remote bool
}

// RunResult aggregates a run per §V-B: throughput T = N/(t2−t1) over
// the earliest and latest active timestamps across all agents, and the
// producers' latency distribution.
type RunResult struct {
	Produced     int64
	Consumed     int64
	ProduceThru  float64
	ConsumeThru  float64
	ProduceMedMs float64
	ProduceP99Ms float64
}

func (o *Operator) transport() client.Transport {
	return client.NewDirect(o.Fabric)
}

func (o *Operator) clientTransport(remote bool) client.Transport {
	t := o.transport()
	if remote {
		return netsim.New(t, netsim.Remote(), nil)
	}
	return t
}

// Run executes the experiment: it provisions the topic, pre-populates
// for the consumer phase ("we first populate the topic with events and
// then initiate consumers"), runs producers concurrently, then runs
// consumers from the earliest offset.
func (o *Operator) Run(spec RunSpec) (RunResult, error) {
	if spec.Topic == "" {
		spec.Topic = "bench"
	}
	if spec.EventsPerProducer <= 0 {
		spec.EventsPerProducer = 1000
	}
	if spec.Producers <= 0 {
		spec.Producers = 1
	}
	_, err := o.Fabric.CreateTopic(spec.Topic, "", cluster.TopicConfig{
		Partitions:        spec.Partitions,
		ReplicationFactor: spec.ReplicationFactor,
	})
	if err != nil {
		return RunResult{}, err
	}
	payload := make([]byte, spec.EventSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	// --- Producer phase ---
	var lat metrics.BucketHist // produce round trips, ns
	var produced int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < spec.Producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := o.clientTransport(spec.Remote)
			batch := make([]event.Event, 0, 64)
			for i := 0; i < spec.EventsPerProducer; i++ {
				batch = append(batch, event.Event{Value: payload})
				if len(batch) == cap(batch) || i == spec.EventsPerProducer-1 {
					t0 := time.Now()
					if _, err := tr.Produce("", spec.Topic, -1, batch, spec.Acks); err != nil {
						return
					}
					lat.ObserveDuration(time.Since(t0))
					mu.Lock()
					produced += int64(len(batch))
					mu.Unlock()
					batch = batch[:0]
				}
			}
		}()
	}
	wg.Wait()
	produceElapsed := time.Since(start)

	// --- Consumer phase: all consumers start from the first offset and
	// consume at their own pace. ---
	var consumed int64
	consStart := time.Now()
	if spec.Consumers > 0 {
		var cwg sync.WaitGroup
		for cidx := 0; cidx < spec.Consumers; cidx++ {
			cwg.Add(1)
			go func(cidx int) {
				defer cwg.Done()
				tr := o.clientTransport(spec.Remote)
				c := client.NewConsumer(tr, client.ConsumerConfig{Start: client.StartEarliest})
				defer c.Close()
				for part := 0; part < spec.Partitions; part++ {
					if err := c.Assign(spec.Topic, part); err != nil {
						return
					}
				}
				var got int64
				for got < produced {
					evs, err := c.Poll(1000)
					if err != nil {
						return
					}
					if len(evs) == 0 {
						break
					}
					got += int64(len(evs))
				}
				mu.Lock()
				consumed += got
				mu.Unlock()
			}(cidx)
		}
		cwg.Wait()
	}
	consumeElapsed := time.Since(consStart)

	snap := lat.Snapshot()
	res := RunResult{
		Produced:     produced,
		Consumed:     consumed,
		ProduceMedMs: snap.Quantile(0.5) / 1e6,
		ProduceP99Ms: snap.Quantile(0.99) / 1e6,
	}
	if produceElapsed > 0 {
		res.ProduceThru = float64(produced) / produceElapsed.Seconds()
	}
	if spec.Consumers > 0 && consumeElapsed > 0 {
		res.ConsumeThru = float64(consumed) / consumeElapsed.Seconds()
	}
	return res, nil
}

// ShapeCheck runs a reduced-scale version of the Table III acks and
// size comparisons on the real fabric and reports whether the paper's
// orderings hold: acks=0 ≥ acks=1 ≥ acks=all throughput, and read ≥
// write throughput. It exists so the repo can verify the *behavioral*
// shape without AWS hardware.
func (o *Operator) ShapeCheck() (map[string]float64, error) {
	out := make(map[string]float64)
	for i, acks := range []broker.Acks{broker.AcksNone, broker.AcksLeader, broker.AcksAll} {
		op, err := NewOperator(model.Baseline)
		if err != nil {
			return nil, err
		}
		res, err := op.Run(RunSpec{
			Topic: fmt.Sprintf("shape-acks-%d", i), Partitions: 2, ReplicationFactor: 2,
			Acks: acks, EventSize: 1024, Producers: 4, Consumers: 1, EventsPerProducer: 2000,
		})
		if err != nil {
			return nil, err
		}
		out["prod_acks_"+acks.String()] = res.ProduceThru
		out["cons_acks_"+acks.String()] = res.ConsumeThru
	}
	return out, nil
}
