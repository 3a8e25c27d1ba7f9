// Command octopus-server runs a single-region Octopus deployment: the
// broker cluster, the wire (TCP) endpoints for producers and consumers,
// and the Octopus Web Service (HTTP) for topic/trigger/credential
// management — the cloud half of Figure 2 in one process.
//
//	octopus-server -brokers 3 -wire 127.0.0.1:9092 -http 127.0.0.1:8080
//
// Every broker gets its own wire listener, on ports ascending from
// -wire's (broker 0 on the base port, broker 1 on base+1, ...), scoped
// to the partitions it leads. Clients discover the whole cluster from
// any one of them and dial partition leaders directly. Followers
// replicate from partition leaders over the wire (OpReplicaFetch), ISR
// membership and high watermarks are tracked per partition, and
// acks=all gates on real replication. Add -data to back every broker's
// logs with durable segment files that replay after a crash:
//
//	octopus-server -brokers 3 -data /var/lib/octopus
//
// With -metrics-addr, the process serves Prometheus text exposition:
// the fabric-wide registry plus one registry per broker listener
// (labelled broker="N") from a single /metrics endpoint. With
// -pprof-addr, the standard net/http/pprof profiles are served on
// their own listener, kept off the public web-service address:
//
//	octopus-server -brokers 3 -metrics-addr 127.0.0.1:9100 -pprof-addr 127.0.0.1:6060
//
// For a first run, -bootstrap-user creates an identity and prints a
// token and fabric key so the CLI can connect immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"time"

	"repro/internal/clusternet"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trigger"
	"repro/internal/wire"
)

func main() {
	brokers := flag.Int("brokers", 2, "number of broker nodes")
	vcpus := flag.Int("vcpus", 2, "vCPUs per broker (capacity model)")
	wireAddr := flag.String("wire", "127.0.0.1:9092", "broker 0's wire listen address; broker i binds its port + i (port 0: every broker ephemeral)")
	dataDir := flag.String("data", "", "durable segment directory; each broker persists its logs under <data>/broker-<id> (empty: in-memory)")
	httpAddr := flag.String("http", "127.0.0.1:8080", "web service HTTP listen address")
	bootstrapUser := flag.String("bootstrap-user", "", "create this identity at startup and print credentials")
	anonymous := flag.Bool("anonymous", false, "allow unauthenticated wire connections")
	retentionSweep := flag.Duration("retention-sweep", time.Minute, "how often to enforce topic retention")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text exposition on this address at /metrics (empty: disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	flag.Parse()

	oct, err := core.Launch(core.Config{Brokers: *brokers, VCPUs: *vcpus, DataDir: *dataDir})
	if err != nil {
		log.Fatalf("launch: %v", err)
	}
	defer oct.Shutdown()
	if *dataDir != "" {
		log.Printf("durable segments under %s (replayed on restart)", *dataDir)
	}

	// Built-in actions users can attach triggers to via the web service.
	oct.Triggers.RegisterAction("log", func(inv *trigger.Invocation) error {
		log.Printf("trigger %s: %d events (partition %d)", inv.TriggerID, len(inv.Events), inv.Partition)
		return nil
	})
	oct.Triggers.RegisterAction("chain", func(inv *trigger.Invocation) error {
		// Re-publish matched events to "<topic>-derived", the common
		// "events generating more events" pattern of §II.
		derived := inv.Events[0].Topic + "-derived"
		_, err := oct.Fabric.Produce("", derived, -1, inv.Events, 1)
		return err
	})

	if *bootstrapUser != "" {
		user, err := oct.Register(*bootstrapUser, "cli")
		if err != nil {
			log.Fatalf("bootstrap: %v", err)
		}
		key, err := user.CreateKey()
		if err != nil {
			log.Fatalf("bootstrap key: %v", err)
		}
		fmt.Printf("bootstrap identity: %s\n", user.Identity.ID)
		fmt.Printf("bearer token:       %s\n", user.Token.Value)
		fmt.Printf("access key id:      %s\n", key.AccessKeyID)
		fmt.Printf("secret access key:  %s\n", key.Secret)
	}

	mode := ""
	if *anonymous {
		mode = " (anonymous)"
	}
	addrs, err := clusterAddrs(*wireAddr, *brokers)
	if err != nil {
		log.Fatalf("wire listen: %v", err)
	}
	cnet, err := clusternet.Serve(oct.Fabric, clusternet.Options{AllowAnonymous: *anonymous, Addrs: addrs})
	if err != nil {
		log.Fatalf("wire listen: %v", err)
	}
	defer cnet.Close()
	for _, id := range oct.Fabric.NodeIDs() {
		log.Printf("broker %d wire endpoint%s on %s (leader-scoped, protocol v%d)", id, mode, cnet.Addr(id), wire.ProtocolV2)
	}
	log.Printf("replication: followers pull over OpReplicaFetch, acks=all gated on ISR high watermarks")
	// promSources is rebuilt per scrape so a stopped/restarted broker's
	// listener joins and leaves the exposition with its lifecycle.
	promSources := func() []metrics.PromSource {
		srcs := []metrics.PromSource{{Reg: oct.Fabric.Metrics}}
		for _, id := range oct.Fabric.NodeIDs() {
			if srv := cnet.Server(id); srv != nil {
				srcs = append(srcs, metrics.PromSource{
					Labels: fmt.Sprintf(`broker="%d"`, id), Reg: srv.Metrics(),
				})
			}
		}
		return srcs
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(promSources))
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Fatalf("metrics: %v", err)
			}
		}()
	}
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux, served only here — never on the web-service or
		// metrics listeners.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Fatalf("pprof: %v", err)
			}
		}()
	}

	go func() {
		log.Printf("web service on http://%s", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, oct.Web); err != nil {
			log.Fatalf("http: %v", err)
		}
	}()

	// Retention enforcement loop (§IV-F: 7-day default retention).
	go func() {
		for {
			time.Sleep(*retentionSweep)
			if n := oct.Fabric.EnforceRetention(); n > 0 {
				log.Printf("retention: deleted %d records", n)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("shutting down")
}

// clusterAddrs derives each broker's listen address from the base wire
// address: broker i binds the base port + i.
func clusterAddrs(base string, brokers int) (map[int]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("-wire %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-wire %q: %w", base, err)
	}
	addrs := make(map[int]string, brokers)
	for i := 0; i < brokers; i++ {
		p := port
		if port != 0 {
			p = port + i
		}
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return addrs, nil
}
