package repro

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/clusternet"
	"repro/internal/event"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// Allocation-regression benchmarks for the zero-allocation hot paths.
// They fail (not just report) when the steady-state allocation budget is
// exceeded, so the CI bench smoke doubles as a regression gate:
//
//	go test -bench 'Allocs' -benchmem -run '^$' .
//
// Budget: ≤2 allocs per produce of a 64-event batch (the batch arena plus
// amortized log growth) and ≤2 per fetch (the result slice plus amortized
// growth). The seed spent ~98 allocs on the same produce call.
const allocBudget = 2.0

// BenchmarkProduceAllocs measures steady-state allocations of a 64-event
// produce on a warmed fabric: routing cached, scratch pooled, one arena
// per batch.
func BenchmarkProduceAllocs(b *testing.B) {
	f := newBenchFabric(b, 2, 2)
	batch := oneKBBatch(64)
	if _, err := f.Produce("", "bench", -1, batch, broker.AcksLeader); err != nil {
		b.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Produce("", "bench", -1, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(allocs, "allocs/produce")
	if allocs > allocBudget {
		b.Fatalf("produce of a 64-event batch allocates %.1f times, budget %.0f", allocs, allocBudget)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Produce("", "bench", -1, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchAllocs measures steady-state allocations of a 64-event
// fetch with a byte budget on a warmed fabric: cached routing plus the
// indexed, streaming log read.
func BenchmarkFetchAllocs(b *testing.B) {
	f := newBenchFabric(b, 2, 2)
	batch := oneKBBatch(64)
	for i := 0; i < 8; i++ {
		if _, err := f.Produce("", "bench", 0, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	}
	fetch := func() {
		res, err := f.Fetch("", "bench", 0, 0, 64, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Events) != 64 {
			b.Fatalf("fetched %d events", len(res.Events))
		}
	}
	fetch()
	allocs := testing.AllocsPerRun(100, fetch)
	b.ReportMetric(allocs, "allocs/fetch")
	if allocs > allocBudget {
		b.Fatalf("fetch of a 64-event batch allocates %.1f times, budget %.0f", allocs, allocBudget)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

// legacyTransport hides Direct's BufferedFetcher extension, so the
// consumer falls back to the pre-session per-fetch allocation path —
// measured alongside the session path as the regression baseline.
type legacyTransport struct{ client.Transport }

// BenchmarkConsumerPollAllocs measures steady-state allocations of a
// 64-event SDK consumer Poll through the zero-copy fetch session
// (budget ≤2: the reused result slice plus amortized growth), and
// reports the legacy non-session path for comparison.
func BenchmarkConsumerPollAllocs(b *testing.B) {
	f := newBenchFabric(b, 2, 2)
	batch := oneKBBatch(64)
	for i := 0; i < 4; i++ {
		if _, err := f.Produce("", "bench", 0, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	}
	mkPoll := func(t client.Transport) func() {
		c := client.NewConsumer(t, client.ConsumerConfig{Start: client.StartEarliest})
		b.Cleanup(func() { c.Close() })
		if err := c.Assign("bench", 0); err != nil {
			b.Fatal(err)
		}
		return func() {
			c.Seek("bench", 0, 0)
			evs, err := c.Poll(64)
			if err != nil {
				b.Fatal(err)
			}
			if len(evs) != 64 {
				b.Fatalf("polled %d events", len(evs))
			}
		}
	}
	poll := mkPoll(client.NewDirect(f))
	legacyPoll := mkPoll(legacyTransport{client.NewDirect(f)})
	poll()
	legacyPoll()
	allocs := testing.AllocsPerRun(100, poll)
	legacy := testing.AllocsPerRun(100, legacyPoll)
	if allocs > allocBudget {
		b.Fatalf("session poll of 64 events allocates %.1f times, budget %.0f", allocs, allocBudget)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poll()
	}
	// Reported after the timed loop: ResetTimer deletes user metrics.
	b.ReportMetric(allocs, "allocs/poll")
	b.ReportMetric(legacy, "allocs/poll_legacy")
}

// delayProxy is testbed.DelayProxy with benchmark-scoped cleanup: the
// emulated WAN link that makes the pipelining gate meaningful on any
// host (on loopback there is no latency to hide).
func delayProxy(b *testing.B, target string, oneWay time.Duration) string {
	b.Helper()
	addr, stop, err := testbed.DelayProxy(target, oneWay)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	return addr
}

// BenchmarkRemoteProducePipelined gates the pipelined wire transport:
// the same produce workload crosses an emulated remote link (2 ms RTT)
// serially (one round trip in flight — the seed client's behavior) and
// pipelined (16 in flight on one connection, correlation-dispatched).
// The pipelined run must beat 2x the serial throughput or the benchmark
// fails; with the round trip dominated by link latency the transport
// should approach inflight-fold speedup.
func BenchmarkRemoteProducePipelined(b *testing.B) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic("rp", "", cluster.TopicConfig{Partitions: 4}); err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer(f)
	srv.AllowAnonymous = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	remote := delayProxy(b, addr, time.Millisecond)
	c, err := wire.DialAnonymous(remote)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const batchEvents, inflight = 16, 16
	const serialProbe, pipeProbe = 128, 2048
	batch := oneKBBatch(batchEvents)
	produce := func(p int) error {
		_, err := c.Produce("", "rp", p, batch, broker.AcksLeader)
		return err
	}
	if err := produce(0); err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < serialProbe; i++ {
		if err := produce(i % 4); err != nil {
			b.Fatal(err)
		}
	}
	serial := float64(serialProbe) / time.Since(start).Seconds()
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pipeProbe/inflight; i++ {
				if err := produce(w % 4); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Failed() {
		b.FailNow()
	}
	pipelined := float64(pipeProbe) / time.Since(start).Seconds()
	if pipelined < 2*serial {
		b.Fatalf("pipelined %.0f rt/s < 2x serial %.0f rt/s over the same link", pipelined, serial)
	}
	b.SetBytes(batchEvents << 10)
	b.ResetTimer()
	b.SetParallelism(inflight)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := produce(0); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	// Reported after the timed loop: ResetTimer deletes user metrics.
	b.ReportMetric(serial*batchEvents, "serial_events/s")
	b.ReportMetric(pipelined*batchEvents, "pipelined_events/s")
	b.ReportMetric(pipelined/serial, "speedup_x")
}

// BenchmarkInstrumentationOverhead gates the observability plane's
// hot-path cost: the identical 128-event produce+fetch loop runs on
// two fabrics in the same run — one with hot-path metrics disabled
// (Fabric.SetHotPathMetrics(false): nil handle struct, logs opened
// without observers — the pre-observability baseline) and one with the
// default instrumentation (bucketed histograms + counters on produce,
// append, commit-wait, and fetch, plus 1-in-128 stage-trace sampling).
// The benchmark fails if the instrumented path costs more than 5%
// extra ns/op (median of per-pair differences over position-balanced
// interleaved pairs, so GC pauses and environment drift cancel) or if
// the instrumented side allocates more per op — observation must stay
// allocation-free.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	const batchEvents = 128
	mk := func(instrumented bool) func() {
		f := broker.NewFabric(nil)
		// Before any produce: route building resolves the metric handles
		// into each log's observer config, so the baseline fabric must
		// disable them before its logs open.
		f.SetHotPathMetrics(instrumented)
		if err := f.AddBrokers(2, 2, 8); err != nil {
			b.Fatal(err)
		}
		if _, err := f.CreateTopic("obs", "", cluster.TopicConfig{Partitions: 2, ReplicationFactor: 2}); err != nil {
			b.Fatal(err)
		}
		batch := oneKBBatch(batchEvents)
		if _, err := f.Produce("", "obs", 0, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
		return func() {
			if _, err := f.Produce("", "obs", 0, batch, broker.AcksLeader); err != nil {
				b.Fatal(err)
			}
			res, err := f.Fetch("", "obs", 0, 0, batchEvents, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Events) != batchEvents {
				b.Fatalf("fetched %d events", len(res.Events))
			}
		}
	}
	runOff := mk(false)
	runOn := mk(true)
	// Allocation parity: identical per-op counts — three atomic adds
	// per observation never justify an allocation. Raw malloc counters
	// rather than testing.AllocsPerRun, whose integral truncation flaps
	// when amortized log-growth allocations put both sides near a
	// boundary (e.g. 3.98 vs 4.02 reads as 3 vs 4); the two fabrics
	// share call history, so the amortized tail cancels and any real
	// per-op difference shows up as a full +1.
	mallocs := func(run func()) float64 {
		const runs = 100
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs
	}
	allocsOff := mallocs(runOff)
	allocsOn := mallocs(runOn)
	if allocsOn > allocsOff+0.5 {
		b.Fatalf("instrumented produce+fetch allocates %.2f times, baseline %.2f — instrumentation must be allocation-free", allocsOn, allocsOff)
	}
	// Timing: both fabrics' logs grow with every probe iteration and the
	// arena copies trigger GC cycles whose pauses (milliseconds against
	// ~50µs iterations) land on random iterations, so neither
	// phase-per-side means nor min-of-rounds separate a 5% effect from
	// the noise. Instead: interleave the two sides pair by pair
	// (identical heap and GC environment), alternate which side of the
	// pair runs first (the second call tends to absorb assists
	// triggered by the first), time every iteration individually, and
	// compare per-side medians — a GC pause inflates one sample, never
	// the median.
	const pairs = 512
	dOff := make([]time.Duration, pairs)
	dOn := make([]time.Duration, pairs)
	for i := 0; i < pairs; i++ {
		first, second := runOff, runOn
		tFirst, tSecond := &dOff[i], &dOn[i]
		if i%2 == 1 {
			first, second = runOn, runOff
			tFirst, tSecond = &dOn[i], &dOff[i]
		}
		start := time.Now()
		first()
		*tFirst = time.Since(start)
		start = time.Now()
		second()
		*tSecond = time.Since(start)
	}
	// The estimator is the median of per-pair differences: the two
	// sides of a pair run within microseconds of each other, so slow
	// environment drift (CPU frequency, co-tenant load) cancels exactly,
	// and a GC pause inflates one difference, never the median.
	diffs := make([]time.Duration, pairs)
	for i := range diffs {
		diffs[i] = dOn[i] - dOff[i]
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
	sort.Slice(dOff, func(i, j int) bool { return dOff[i] < dOff[j] })
	sort.Slice(dOn, func(i, j int) bool { return dOn[i] < dOn[j] })
	nsOff := float64(dOff[pairs/2].Nanoseconds())
	nsOn := float64(dOn[pairs/2].Nanoseconds())
	overhead := 1 + float64(diffs[pairs/2].Nanoseconds())/nsOff
	if overhead > 1.05 {
		b.Fatalf("instrumented produce+fetch %.0f ns vs baseline %.0f ns: %.1f%% overhead, budget 5%%",
			nsOn, nsOff, (overhead-1)*100)
	}
	b.SetBytes(batchEvents << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOn()
	}
	b.StopTimer()
	// Reported after the timed loop: ResetTimer deletes user metrics.
	b.ReportMetric(nsOff, "baseline_ns/op")
	b.ReportMetric(nsOn, "instrumented_ns/op")
	b.ReportMetric(overhead, "overhead_x")
	b.ReportMetric(allocsOn, "allocs/op")
}

// BenchmarkWireHeaderAllocs gates the v2 header codec on the server's
// actual decode path: one full fetch header round trip — request encode
// + interned decode (the per-connection topic intern table from PR 4)
// plus response (with a 64-event dense offset run) encode+decode — must
// be allocation-free once the intern table is warm. PR 3 left exactly
// one allocation here (the decoded topic string); the interner removes
// it. The v1 JSON path for the identical headers is reported alongside
// as the regression baseline.
func BenchmarkWireHeaderAllocs(b *testing.B) {
	req := wire.FetchReq{Topic: "bench", Partition: 3, Offset: 123456, MaxEvents: 500, MaxBytes: 2 << 20}
	evs := make([]event.Event, 64)
	for i := range evs {
		evs[i].Offset = int64(1000 + i)
	}
	resp := wire.FetchResp{NumEvents: 64, HighWatermark: 1064}
	resp.SetOffsets(evs)
	op := req.V2Op()
	var reqBuf, respBuf []byte
	var rq wire.FetchReq
	var rs wire.FetchResp
	var interner wire.Interner
	run := func() {
		reqBuf = wire.AppendRequestV2(reqBuf[:0], 7, &req)
		if _, err := wire.DecodeRequestV2Interned(reqBuf, &rq, &interner); err != nil {
			b.Fatal(err)
		}
		respBuf = wire.AppendResponseV2(respBuf[:0], op, 7, &resp)
		if _, _, err := wire.DecodeResponseV2(respBuf, &rs); err != nil {
			b.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 0 {
		b.Fatalf("v2 header encode+interned decode allocates %.1f times, budget 0", allocs)
	}
	b.SetBytes(int64(len(reqBuf) + len(respBuf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(allocs, "allocs/roundtrip")
}

// BenchmarkManyConnections gates connection-scale serving: Conns
// connections each consuming 64 partitions over multiplexed fetch
// sessions (one pump per connection, one shared credit window). Gate:
// the session path adds at most 2 goroutines per connection for all 64
// subscriptions. The fixture's teardown doubles as a goroutine-leak
// gate.
func BenchmarkManyConnections(b *testing.B) {
	// The identical fixture backs octopus-bench -connections, so the
	// operator-visible measurement is the one CI gates.
	const conns, parts, perPart, eventSize = 16, 64, 200, 100
	fx, err := testbed.NewConnScaleFixture(conns, parts, perPart, eventSize)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fx.Close)
	sess, err := fx.Run()
	if err != nil {
		b.Fatal(err)
	}
	if sess.ServingPerConn > 2 {
		b.Fatalf("sessioned fetch adds %.2f goroutines/connection serving %d partitions, budget 2",
			sess.ServingPerConn, parts)
	}

	// Timed loop: steady-state sessioned consumption of one partition.
	c, err := wire.DialOptions(fx.Addr(), wire.Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	b.SetBytes(eventSize * 100)
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		// Wrapping to offset 0 is a seek, which re-subscribes; a zero-wait
		// fetch on a fresh subscription may return before its first push.
		res, err := c.FetchBufferedWait("", "cs", 0, off, 100, 1<<20, time.Second, &buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Events) == 0 {
			b.Fatalf("empty fetch at %d of a %d-event backlog", off, perPart)
		}
		if off = res.Events[len(res.Events)-1].Offset + 1; off >= perPart {
			off = 0
		}
	}
	b.StopTimer()
	// Reported after the timed loop: ResetTimer deletes user metrics.
	b.ReportMetric(sess.GoroutinesPerConn, "sess_goroutines/conn")
	b.ReportMetric(sess.AllocsPerEvent, "sess_allocs/event")
}

// BenchmarkReplicatedProduce gates PR 8's tentpole cost: on a 3-broker
// RF-3 clusternet fabric with every broker behind an emulated WAN link
// (testbed.DelayProxy), an acks=all produce — which commits only after
// the follower brokers replicate the batch over OpReplicaFetch and ack
// — must cost at most 2.5x an acks=leader produce in the same run.
// The budget is what the long-poll design predicts: followers park on
// the leader's tail waiter, so a produce pays one client→leader round
// trip plus roughly one follower link round trip (push to the parked
// fetch, then the OpReplicaAck that advances the high watermark), not
// a fetch-interval of idle waiting.
func BenchmarkReplicatedProduce(b *testing.B) {
	const oneWay = 2 * time.Millisecond
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(3, 2, 8); err != nil {
		b.Fatal(err)
	}
	f.MinInsyncReplicas = 2
	var proxyStops []func()
	cnet, err := clusternet.Serve(f, clusternet.Options{
		AllowAnonymous: true,
		Replication:    true,
		Advertise: func(id int, bound string) (string, error) {
			addr, stop, perr := testbed.DelayProxy(bound, oneWay)
			if perr != nil {
				return "", perr
			}
			proxyStops = append(proxyStops, stop)
			return addr, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cnet.Close()
		for i := len(proxyStops) - 1; i >= 0; i-- {
			proxyStops[i]()
		}
	})
	if _, err := f.CreateTopic("rp", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		b.Fatal(err)
	}
	c, err := wire.DialOptions(cnet.Addr(0), wire.Options{Anonymous: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	batch := oneKBBatch(16)
	// Warm both paths: routing cached, follower fetch loops caught up
	// and parked on the leader's tail waiter.
	for i := 0; i < 3; i++ {
		if _, err := c.Produce("", "rp", 0, batch, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Produce("", "rp", 0, batch, broker.AcksAll); err != nil {
			b.Fatal(err)
		}
	}
	const rounds = 25
	measure := func(acks broker.Acks) time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := c.Produce("", "rp", 0, batch, acks); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start) / rounds
	}
	leaderLat := measure(broker.AcksLeader)
	allLat := measure(broker.AcksAll)
	if allLat > leaderLat*5/2 {
		b.Fatalf("acks=all %v/produce > 2.5x acks=leader %v/produce over the same %v links",
			allLat, leaderLat, oneWay)
	}
	st, ok := f.ReplicaStatusFor("rp", 0)
	if !ok || st.HighWatermark != st.LogEnd {
		b.Fatalf("high watermark %d lags leader log end %d after the acks=all run", st.HighWatermark, st.LogEnd)
	}

	// Timed loop: steady-state replicated acks=all produce.
	b.SetBytes(16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Produce("", "rp", 0, batch, broker.AcksAll); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Reported after the timed loop: ResetTimer deletes user metrics.
	b.ReportMetric(float64(leaderLat.Microseconds()), "leader_us/produce")
	b.ReportMetric(float64(allLat.Microseconds()), "all_us/produce")
	b.ReportMetric(float64(allLat)/float64(leaderLat), "all_vs_leader_x")
}

// BenchmarkUnmarshalBatchAllocs pins the fetch-side wire decode: one
// events slice per batch, zero per-field copies.
func BenchmarkUnmarshalBatchAllocs(b *testing.B) {
	evs := oneKBBatch(64)
	payload := event.AppendBatchMarshal(nil, evs)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := event.UnmarshalBatch(payload, 64); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(allocs, "allocs/decode")
	if allocs > allocBudget {
		b.Fatalf("batch decode allocates %.1f times, budget %.0f", allocs, allocBudget)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := event.UnmarshalBatch(payload, 64); err != nil {
			b.Fatal(err)
		}
	}
}
