// Package repro holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus real-fabric microbenchmarks and
// the ablations called out in DESIGN.md §4. The modeled experiments
// report paper-shape metrics through b.ReportMetric; the real-fabric
// benchmarks measure this host.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/fsmon"
	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/testbed"
	"repro/internal/trigger"
	"repro/internal/wfmon"
	"repro/internal/wire"
)

// --- Table I: use-case workloads on the real fabric ---

// BenchmarkTable1UseCases drives each use case's event profile (size,
// rate shape) through the real fabric and reports events/s.
func BenchmarkTable1UseCases(b *testing.B) {
	cases := []struct {
		name string
		size int
	}{
		{"SDL_512B", 512},
		{"DataAuto_4KB", 4096},
		{"Scheduling_1KB", 1024},
		{"Epidemic_1KB", 1024},
		{"Workflow_1KB", 1024},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			f := newBenchFabric(b, 2, 2)
			payload := make([]byte, c.size)
			batch := []event.Event{{Value: payload}}
			b.SetBytes(int64(c.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Produce("", "bench", -1, batch, broker.AcksLeader); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// --- Table III ---

// BenchmarkTable3Model regenerates every Table III cell from the
// calibrated model and reports the headline cells as metrics.
func BenchmarkTable3Model(b *testing.B) {
	var rows []testbed.Table3Row
	for i := 0; i < b.N; i++ {
		rows = testbed.RunTable3()
	}
	b.ReportMetric(rows[0].ProdThru, "exp1_local_prod_ev/s")
	b.ReportMetric(rows[0].ConsThru, "exp1_local_cons_ev/s")
	b.ReportMetric(rows[2].ProdThru, "exp2_local_prod_ev/s")
}

// BenchmarkTable3RealAcks runs the acks sweep of experiments 2-4 on the
// real in-process fabric at this host's scale (absolute numbers are the
// host's; the ordering is the paper's).
func BenchmarkTable3RealAcks(b *testing.B) {
	for _, acks := range []broker.Acks{broker.AcksNone, broker.AcksLeader, broker.AcksAll} {
		b.Run("acks="+acks.String(), func(b *testing.B) {
			f := newBenchFabric(b, 2, 2)
			payload := make([]byte, 1024)
			batch := make([]event.Event, 64)
			for i := range batch {
				batch[i] = event.Event{Value: payload}
			}
			b.SetBytes(int64(64 * 1024))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Produce("", "bench", -1, batch, acks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkTable3RealReadVsWrite measures the consumer/producer
// throughput ratio on the real fabric (paper: reads ≈ 2x writes).
func BenchmarkTable3RealReadVsWrite(b *testing.B) {
	b.Run("produce", func(b *testing.B) {
		f := newBenchFabric(b, 2, 2)
		batch := oneKBBatch(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Produce("", "bench", -1, batch, broker.AcksNone); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("consume", func(b *testing.B) {
		f := newBenchFabric(b, 2, 2)
		batch := oneKBBatch(64)
		for i := 0; i < 256; i++ {
			if _, err := f.Produce("", "bench", -1, batch, broker.AcksNone); err != nil {
				b.Fatal(err)
			}
		}
		end0, _ := f.EndOffset("bench", 0)
		end1, _ := f.EndOffset("bench", 1)
		b.ResetTimer()
		consumed := 0
		for i := 0; i < b.N; i++ {
			var off0, off1 int64
			for off0 < end0 || off1 < end1 {
				r0, err := f.Fetch("", "bench", 0, off0, 1024, 0)
				if err != nil {
					b.Fatal(err)
				}
				off0 = r0.HighWatermark
				consumed += len(r0.Events)
				r1, err := f.Fetch("", "bench", 1, off1, 1024, 0)
				if err != nil {
					b.Fatal(err)
				}
				off1 = r1.HighWatermark
				consumed += len(r1.Events)
			}
		}
		b.ReportMetric(float64(consumed)/b.Elapsed().Seconds(), "events/s")
	})
}

// --- Figure 3 ---

// BenchmarkFigure3Sweep regenerates the producer sweeps and reports the
// saturation point of the 1 KB acks=0 series.
func BenchmarkFigure3Sweep(b *testing.B) {
	var series []testbed.Fig3Series
	for i := 0; i < b.N; i++ {
		series = testbed.RunFigure3()
	}
	s := series[1] // Exp 2: 1 KB acks=0
	b.ReportMetric(s.Points[len(s.Points)-1].Throughput, "peak_ev/s")
	b.ReportMetric(s.Points[len(s.Points)-1].MedianMs, "sat_median_ms")
}

// --- Figure 4 ---

// BenchmarkFigure4TriggerScaling runs the full 5120-task autoscaling
// simulation per iteration (23 virtual minutes in ~ms of real time).
func BenchmarkFigure4TriggerScaling(b *testing.B) {
	var res testbed.Fig4Result
	for i := 0; i < b.N; i++ {
		res = testbed.RunFigure4(testbed.DefaultFig4Config())
	}
	b.ReportMetric(res.TimeToMaxConc.Seconds(), "s_to_max_conc")
	b.ReportMetric(res.Completed.Seconds(), "s_to_complete")
	b.ReportMetric(float64(res.PeakConcurrency), "peak_concurrency")
}

// BenchmarkTriggerRealThroughput measures the live trigger runtime
// (pattern filter + batch + commit) on the real fabric, the §V-D
// counterpart.
func BenchmarkTriggerRealThroughput(b *testing.B) {
	for _, parts := range []int{1, 8} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			f := newBenchFabricTopic(b, 2, parts, "trig")
			var delivered sync.WaitGroup
			tr, err := trigger.New(f, trigger.Config{
				ID: "bench", Topic: "trig", BatchSize: 1000,
				MaxConcurrency: parts, MinConcurrency: parts,
			}, func(inv *trigger.Invocation) error {
				delivered.Add(-len(inv.Events))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			tr.Start()
			defer tr.Stop()
			batch := oneKBBatch(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delivered.Add(100)
				if _, err := f.Produce("", "trig", -1, batch, broker.AcksLeader); err != nil {
					b.Fatal(err)
				}
			}
			delivered.Wait()
			b.ReportMetric(float64(b.N*100)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// --- Figure 5 ---

// BenchmarkFigure5Tenancy regenerates the multi-tenancy sweep.
func BenchmarkFigure5Tenancy(b *testing.B) {
	var pts []testbed.Fig5Point
	for i := 0; i < b.N; i++ {
		pts = testbed.RunFigure5()
	}
	b.ReportMetric(pts[2].ProdThru, "prod_at_4_topics_ev/s")
	b.ReportMetric(pts[4].ConsThru, "cons_at_16_topics_ev/s")
}

// --- Figure 7 ---

// BenchmarkFigure7DataAutomation runs the hierarchical FS pipeline
// simulation per iteration.
func BenchmarkFigure7DataAutomation(b *testing.B) {
	var res testbed.Fig7Result
	for i := 0; i < b.N; i++ {
		res = testbed.RunFigure7(testbed.DefaultFig7Config())
	}
	b.ReportMetric(res.Reduction, "aggregation_reduction_x")
	b.ReportMetric(float64(res.Transfers), "transfers")
}

// --- Figure 8 ---

// BenchmarkFigure8Workflow computes the full HTEX-vs-Octopus grid per
// iteration and reports the 64-worker sleep10ms cells.
func BenchmarkFigure8Workflow(b *testing.B) {
	var cells []testbed.Fig8Cell
	for i := 0; i < b.N; i++ {
		cells = testbed.RunFigure8()
	}
	for _, c := range cells {
		if c.Workers == 64 && c.Duration == 10*time.Millisecond {
			switch c.System {
			case "HTEX":
				b.ReportMetric(c.Overhead, "htex_ms_per_event")
			case "Octopus":
				b.ReportMetric(c.Overhead, "octopus_ms_per_event")
			}
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationProducerBatching compares per-event produce against
// SDK batching, the throughput-vs-latency trade §VI-E leans on.
func BenchmarkAblationProducerBatching(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			f := newBenchFabric(b, 2, 2)
			evs := oneKBBatch(batch)
			b.SetBytes(int64(batch * 1024))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Produce("", "bench", -1, evs, broker.AcksLeader); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkAblationFetchBytesBudget varies the consumer receive budget
// (the paper tunes receive.buffer.bytes to 2 MB).
func BenchmarkAblationFetchBytesBudget(b *testing.B) {
	for _, budget := range []int{64 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("budget=%dKB", budget>>10), func(b *testing.B) {
			f := newBenchFabric(b, 2, 1)
			evs := oneKBBatch(256)
			for i := 0; i < 16; i++ {
				if _, err := f.Produce("", "bench", 0, evs, broker.AcksNone); err != nil {
					b.Fatal(err)
				}
			}
			end, _ := f.EndOffset("bench", 0)
			b.ResetTimer()
			consumed := 0
			for i := 0; i < b.N; i++ {
				var off int64
				for off < end {
					res, err := f.Fetch("", "bench", 0, off, 1<<20, budget)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Events) == 0 {
						break
					}
					off = res.Events[len(res.Events)-1].Offset + 1
					consumed += len(res.Events)
				}
			}
			b.ReportMetric(float64(consumed)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkAblationAggregation compares trigger load with and without
// the hierarchical aggregator (§VII-C's cost mitigation).
func BenchmarkAblationAggregation(b *testing.B) {
	gen := fsmon.NewGenerator(fsmon.GeneratorConfig{FilesPerBurst: 16, ModifiesPerFile: 16})
	bursts := make([][]fsmon.FSEvent, 64)
	t0 := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range bursts {
		bursts[i] = gen.Burst(t0.Add(time.Duration(i) * time.Second))
	}
	b.Run("without-aggregator", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			for _, burst := range bursts {
				n += len(burst) // every raw event reaches the cloud
			}
		}
		b.ReportMetric(float64(n)/float64(b.N), "cloud_events_per_run")
	})
	b.Run("with-aggregator", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			agg := fsmon.NewAggregator(time.Hour)
			for _, burst := range bursts {
				n += len(agg.Filter(burst))
			}
		}
		b.ReportMetric(float64(n)/float64(b.N), "cloud_events_per_run")
	})
}

// BenchmarkAblationPatternAtFabricVsConsumer compares filtering inside
// the trigger runtime against shipping everything to a consumer. The
// filter's own cost (and its 0 allocs/op gate) is BenchmarkMatchJSON in
// internal/pattern.
func BenchmarkAblationPatternAtFabricVsConsumer(b *testing.B) {
	pat := pattern.MustCompile(`{"value": {"event_type": ["created"]}}`)
	docs := make([][]byte, 1000)
	for i := range docs {
		kind := "modified"
		if i%10 == 0 {
			kind = "created"
		}
		docs[i] = event.New("", map[string]any{"value": map[string]any{"event_type": kind}}).Value
	}
	b.Run("filter-at-fabric", func(b *testing.B) {
		matched := 0
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				if pat.MatchJSON(d) {
					matched++ // only matches would be delivered
				}
			}
		}
		b.ReportMetric(float64(matched)/float64(b.N), "delivered_per_run")
	})
	b.Run("filter-at-consumer", func(b *testing.B) {
		delivered := 0
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				delivered++ // every event crosses the network first
				_ = pat.MatchJSON(d)
			}
		}
		b.ReportMetric(float64(delivered)/float64(b.N), "delivered_per_run")
	})
}

// BenchmarkAblationTriggerBatchSize sweeps the Figure-4 simulation's
// batch size, showing why batch=1 needs 128 concurrent functions.
func BenchmarkAblationTriggerBatchSize(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var conc int
			for i := 0; i < b.N; i++ {
				conc = trigger.NextConcurrency(3, 5000, batch, 128, 1, 128, 3.5)
			}
			b.ReportMetric(float64(conc), "first_step_concurrency")
		})
	}
}

// --- Core microbenchmarks ---

func BenchmarkEventMarshal(b *testing.B) {
	ev := event.Event{
		Key:     []byte("instrument-7"),
		Value:   make([]byte, 1024),
		Headers: map[string]string{"experiment": "e-12"},
	}
	b.SetBytes(int64(ev.Size()))
	for i := 0; i < b.N; i++ {
		buf := ev.Marshal()
		if _, _, err := event.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternMatch is a two-field pattern on a hand-written
// document; the per-event cost on generated fsmon documents, kept and
// dropped, is gated by BenchmarkMatchJSON in internal/pattern, and the
// trigger's produce->action latency by BenchmarkTriggerWakeLatency in
// internal/trigger.
func BenchmarkPatternMatch(b *testing.B) {
	pat := pattern.MustCompile(`{"value": {"event_type": ["created"], "size": [{"numeric": [">", 0]}]}}`)
	doc := []byte(`{"value": {"event_type": "created", "size": 4096, "path": "/data/x.tif"}}`)
	for i := 0; i < b.N; i++ {
		if !pat.MatchJSON(doc) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkWireRoundTrip(b *testing.B) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic("w", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer(f)
	srv.AllowAnonymous = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.DialAnonymous(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	batch := oneKBBatch(64)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Produce("", "w", 0, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSDKProducerPipeline(b *testing.B) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic("sdk", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		b.Fatal(err)
	}
	p := client.NewProducer(client.NewDirect(f), "sdk", client.ProducerConfig{BatchEvents: 256})
	defer p.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Send(event.Event{Value: payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkWorkflowModel runs one SimulateRun cell (128 tasks).
func BenchmarkWorkflowModel(b *testing.B) {
	cfg := wfmon.RunConfig{Tasks: 128, Nodes: 8, Workers: 32, TaskDuration: 10 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		wfmon.SimulateRun(cfg, wfmon.HTEXModel())
	}
}

// BenchmarkModelEvaluation measures one full Table III evaluation.
func BenchmarkModelEvaluation(b *testing.B) {
	w := model.Workload{EventSize: 1024, Acks: broker.AcksNone, Partitions: 2, ReplicationFactor: 2, Locality: model.Local}
	for i := 0; i < b.N; i++ {
		model.ProducerThroughput(model.Baseline, w)
		model.MedianLatency(model.Baseline, w)
	}
}

// --- helpers ---

func newBenchFabric(b *testing.B, brokers, partitions int) *broker.Fabric {
	return newBenchFabricTopic(b, brokers, partitions, "bench")
}

func newBenchFabricTopic(b *testing.B, brokers, partitions int, topic string) *broker.Fabric {
	b.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(brokers, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: partitions, ReplicationFactor: 2}); err != nil {
		b.Fatal(err)
	}
	return f
}

func oneKBBatch(n int) []event.Event {
	payload := make([]byte, 1024)
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.Event{Value: payload}
	}
	return out
}
