// Command octopus-cli is a minimal command-line client for an Octopus
// deployment's wire endpoint: produce, consume, and offset inspection
// for quick experiments and debugging.
//
//	octopus-cli -addr 127.0.0.1:9092 -key AKIA... -secret ... produce -topic t -value '{"x":1}'
//	octopus-cli -addr 127.0.0.1:9092 -anonymous consume -topic t -from earliest -max 10
//	octopus-cli -addr 127.0.0.1:9092 -anonymous offsets -topic t
//	octopus-cli -addr 127.0.0.1:9092 -anonymous metadata
//	octopus-cli -addr 127.0.0.1:9092 -anonymous isr -topic t
//	octopus-cli -addr 127.0.0.1:9092 -anonymous stats -watch 2s
//	octopus-cli -addr 127.0.0.1:9092 -anonymous trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9092", "wire endpoint address")
	key := flag.String("key", "", "access key id")
	secret := flag.String("secret", "", "secret access key")
	anonymous := flag.Bool("anonymous", false, "connect without credentials")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: octopus-cli [flags] produce|consume|offsets|metadata|isr|stats|trace [subflags]")
		os.Exit(2)
	}

	var (
		conn *wire.Client
		err  error
	)
	if *anonymous {
		conn, err = wire.DialAnonymous(*addr)
	} else {
		conn, err = wire.Dial(*addr, *key, *secret)
	}
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(os.Stderr, "connected to %s (wire protocol v%d)\n", *addr, wire.ProtocolV2)

	switch args[0] {
	case "produce":
		produce(conn, args[1:])
	case "consume":
		consume(conn, args[1:])
	case "offsets":
		offsets(conn, args[1:])
	case "metadata":
		metadata(conn, args[1:])
	case "isr":
		isr(conn, args[1:])
	case "stats":
		stats(conn, args[1:])
	case "trace":
		traceCmd(conn, args[1:])
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

// metadata prints the cluster metadata document — brokers (id, address,
// liveness), topics and per-partition leadership — from the OpMetadata
// path, the same document the client's leader-direct router routes by.
func metadata(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("metadata", flag.ExitOnError)
	topic := fs.String("topic", "", "restrict to one topic (default: all)")
	_ = fs.Parse(args)
	var topics []string
	if *topic != "" {
		topics = append(topics, *topic)
	}
	meta, err := conn.ClusterMetadata(topics...)
	if err != nil {
		log.Fatalf("metadata: %v", err)
	}
	fmt.Printf("metadata epoch %d, leader-direct routing %v\n", meta.Epoch, conn.RouterEnabled())
	fmt.Printf("brokers (%d):\n", len(meta.Brokers))
	for _, br := range meta.Brokers {
		state := "up"
		if !br.Up {
			state = "down"
		}
		addr := br.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Printf("  broker %-3d %-24s %s\n", br.ID, addr, state)
	}
	fmt.Printf("topics (%d):\n", len(meta.Topics))
	for _, t := range meta.Topics {
		fmt.Printf("  %s (%d partitions)\n", t.Name, len(t.Partitions))
		for i, p := range t.Partitions {
			leader := fmt.Sprintf("broker-%d", p.Leader)
			if p.Leader < 0 {
				leader = "NONE"
			}
			fmt.Printf("    partition %d: leader=%s replicas=%v isr=%v\n", i, leader, p.Replicas, p.ISR)
		}
	}
}

// isr prints the metadata document's trailing replication section —
// per-partition leadership, in-sync replica set, leader epoch, high
// watermark, and each follower's replication lag. Partitions the
// replication subsystem has not tracked yet (no acks=all produce or
// replica fetch) are listed without replication state.
func isr(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("isr", flag.ExitOnError)
	topic := fs.String("topic", "", "restrict to one topic (default: all)")
	_ = fs.Parse(args)
	var topics []string
	if *topic != "" {
		topics = append(topics, *topic)
	}
	meta, err := conn.ClusterMetadata(topics...)
	if err != nil {
		log.Fatalf("metadata: %v", err)
	}
	if meta.Replication == nil {
		log.Fatal("no replication section: the cluster serves without the replication subsystem")
	}
	tracked := make(map[string]map[int]wire.PartitionReplication)
	for _, t := range meta.Replication.Topics {
		m := make(map[int]wire.PartitionReplication, len(t.Partitions))
		for _, p := range t.Partitions {
			m[p.ID] = p
		}
		tracked[t.Name] = m
	}
	for _, t := range meta.Topics {
		fmt.Printf("%s (%d partitions)\n", t.Name, len(t.Partitions))
		for i, p := range t.Partitions {
			leader := fmt.Sprintf("broker-%d", p.Leader)
			if p.Leader < 0 {
				leader = "NONE"
			}
			fmt.Printf("  partition %d: leader=%s replicas=%v isr=%v", i, leader, p.Replicas, p.ISR)
			rp, ok := tracked[t.Name][i]
			if !ok {
				fmt.Printf(" (replication untracked)\n")
				continue
			}
			fmt.Printf(" epoch=%d hw=%d leo=%d\n", rp.LeaderEpoch, rp.HighWatermark, rp.LogEnd)
			for _, fo := range rp.Followers {
				fmt.Printf("    follower broker-%d: leo=%d lag=%d\n", fo.Broker, fo.LogEnd, rp.LogEnd-fo.LogEnd)
			}
		}
	}
}

// fetchStats scrapes a broker's OpStats snapshot: the control
// connection by default, or a specific broker's data-plane address
// with -at — any broker answers for itself.
func fetchStats(conn *wire.Client, at string) (*wire.StatsResp, error) {
	if at != "" {
		return conn.StatsAt(at)
	}
	return conn.Stats()
}

// histVal renders one histogram quantile: nanosecond metrics as
// durations, everything else (batch sizes, byte counts) as plain
// numbers.
func histVal(name string, v float64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(int64(v)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.0f", v)
}

// stats prints a broker's observability snapshot — counters, gauges,
// and latency/size histograms with client-side quantiles — scraped
// over the wire connection (OpStats). With -watch it re-scrapes until
// interrupted.
func stats(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	at := fs.String("at", "", "scrape this broker address instead of the control connection")
	watch := fs.Duration("watch", 0, "re-scrape at this interval until interrupted (0: once)")
	_ = fs.Parse(args)
	for {
		st, err := fetchStats(conn, *at)
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		printStats(st)
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}

func printStats(st *wire.StatsResp) {
	broker := fmt.Sprintf("broker %d", st.BrokerID)
	if st.BrokerID < 0 {
		broker = "unscoped listener"
	}
	fmt.Printf("%s @ %s\n", broker, time.Now().Format(time.RFC3339))
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Name < st.Counters[j].Name })
	sort.Slice(st.Gauges, func(i, j int) bool { return st.Gauges[i].Name < st.Gauges[j].Name })
	sort.Slice(st.Hists, func(i, j int) bool { return st.Hists[i].Name < st.Hists[j].Name })
	if len(st.Counters) > 0 {
		fmt.Println("counters:")
		for _, e := range st.Counters {
			fmt.Printf("  %-36s %d\n", e.Name, e.Value)
		}
	}
	if len(st.Gauges) > 0 {
		fmt.Println("gauges:")
		for _, e := range st.Gauges {
			fmt.Printf("  %-36s %d\n", e.Name, e.Value)
		}
	}
	if len(st.Hists) > 0 {
		fmt.Println("histograms:")
		for i := range st.Hists {
			h := &st.Hists[i]
			if h.Count == 0 {
				continue
			}
			mean := float64(h.Sum) / float64(h.Count)
			fmt.Printf("  %-36s n=%-8d mean=%-10s p50=%-10s p99=%s\n",
				h.Name, h.Count, histVal(h.Name, mean),
				histVal(h.Name, h.Quantile(0.5)), histVal(h.Name, h.Quantile(0.99)))
		}
	}
}

// traceCmd prints the produce stage-trace breakdown: for every stage
// the server declares, the p50/p99/max latency across the sampled
// produces in the broker's trace ring, then the most recent raw
// samples.
func traceCmd(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	at := fs.String("at", "", "scrape this broker address instead of the control connection")
	recent := fs.Int("n", 5, "also print this many most-recent sampled produces")
	_ = fs.Parse(args)
	st, err := fetchStats(conn, *at)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	if len(st.TraceStages) == 0 || st.TraceEvery == 0 {
		log.Fatal("no stage tracing on this broker")
	}
	fmt.Printf("produce stage tracing: 1-in-%d sampled, %d sampled lifetime, %d in ring\n",
		st.TraceEvery, st.TraceSampled, len(st.Traces))
	for si, name := range st.TraceStages {
		var ds []int64
		for _, tr := range st.Traces {
			// A zero stage did not run for that produce (e.g. no
			// replication wait under acks=1) — excluded from quantiles.
			if si < len(tr.StageNs) && tr.StageNs[si] > 0 {
				ds = append(ds, tr.StageNs[si])
			}
		}
		if len(ds) == 0 {
			fmt.Printf("  %-16s (no samples)\n", name)
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		p50 := ds[len(ds)/2]
		p99 := ds[(len(ds)-1)*99/100]
		max := ds[len(ds)-1]
		fmt.Printf("  %-16s n=%-5d p50=%-10v p99=%-10v max=%v\n", name, len(ds),
			time.Duration(p50).Round(time.Microsecond),
			time.Duration(p99).Round(time.Microsecond),
			time.Duration(max).Round(time.Microsecond))
	}
	if *recent > 0 && len(st.Traces) > 0 {
		n := *recent
		if n > len(st.Traces) {
			n = len(st.Traces)
		}
		fmt.Printf("last %d sampled produces:\n", n)
		for _, tr := range st.Traces[len(st.Traces)-n:] {
			fmt.Printf("  %s events=%d acks=%d", time.Unix(0, tr.StartUnixNano).Format("15:04:05.000000"), tr.Events, tr.Acks)
			for si, d := range tr.StageNs {
				if si < len(st.TraceStages) {
					fmt.Printf(" %s=%v", st.TraceStages[si], time.Duration(d).Round(time.Microsecond))
				}
			}
			fmt.Println()
		}
	}
}

func produce(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("produce", flag.ExitOnError)
	topic := fs.String("topic", "", "topic to publish to")
	keyStr := fs.String("key", "", "event key")
	value := fs.String("value", "", "event payload")
	acks := fs.Int("acks", 1, "acknowledgment level: 0, 1, -1 (all)")
	count := fs.Int("count", 1, "publish the event this many times")
	_ = fs.Parse(args)
	if *topic == "" || *value == "" {
		log.Fatal("produce needs -topic and -value")
	}
	var k []byte
	if *keyStr != "" {
		k = []byte(*keyStr)
	}
	evs := make([]event.Event, *count)
	for i := range evs {
		evs[i] = event.Event{Key: k, Value: []byte(*value)}
	}
	off, err := conn.Produce("", *topic, -1, evs, broker.Acks(*acks))
	if err != nil {
		log.Fatalf("produce: %v", err)
	}
	fmt.Printf("published %d event(s), base offset %d\n", *count, off)
}

func consume(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("consume", flag.ExitOnError)
	topic := fs.String("topic", "", "topic to consume")
	from := fs.String("from", "earliest", "earliest | latest")
	max := fs.Int("max", 10, "stop after this many events")
	wait := fs.Duration("wait", 2*time.Second, "how long to wait for events")
	_ = fs.Parse(args)
	if *topic == "" {
		log.Fatal("consume needs -topic")
	}
	start := client.StartEarliest
	if *from == "latest" {
		start = client.StartLatest
	}
	c := client.NewConsumer(conn, client.ConsumerConfig{Start: start})
	defer c.Close()
	meta, err := conn.TopicMeta(*topic)
	if err != nil {
		log.Fatalf("meta: %v", err)
	}
	for p := 0; p < meta.Config.Partitions; p++ {
		if err := c.Assign(*topic, p); err != nil {
			log.Fatalf("assign: %v", err)
		}
	}
	got := 0
	deadline := time.Now().Add(*wait)
	for got < *max && time.Now().Before(deadline) {
		evs, err := c.Poll(*max - got)
		if err != nil {
			log.Fatalf("poll: %v", err)
		}
		for _, ev := range evs {
			fmt.Printf("%s/%d@%d key=%q %s\n", ev.Topic, ev.Partition, ev.Offset, ev.Key, ev.Value)
			got++
		}
		if len(evs) == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	fmt.Printf("consumed %d event(s)\n", got)
}

func offsets(conn *wire.Client, args []string) {
	fs := flag.NewFlagSet("offsets", flag.ExitOnError)
	topic := fs.String("topic", "", "topic to inspect")
	_ = fs.Parse(args)
	if *topic == "" {
		log.Fatal("offsets needs -topic")
	}
	meta, err := conn.TopicMeta(*topic)
	if err != nil {
		log.Fatalf("meta: %v", err)
	}
	fmt.Printf("topic %s: %d partitions, rf=%d\n", *topic, meta.Config.Partitions, meta.Config.ReplicationFactor)
	for p := 0; p < meta.Config.Partitions; p++ {
		start, err := conn.StartOffset(*topic, p)
		if err != nil {
			log.Fatalf("start offset: %v", err)
		}
		end, err := conn.EndOffset(*topic, p)
		if err != nil {
			log.Fatalf("end offset: %v", err)
		}
		fmt.Printf("  partition %d: offsets [%d, %d) leader=broker-%d\n", p, start, end, meta.Partitions[p].Leader)
	}
}
