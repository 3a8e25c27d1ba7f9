package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/clusternet"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// scratchRoot holds every run's broker data directories. It sits under
// the build directory the runner script creates, so a run reads and
// writes only inside its checkout.
const scratchRoot = ".bench_build/data"

// clusterSpec is the shape of a workload's cluster.
type clusterSpec struct {
	brokers int
	minISR  int
	// oneWay, when > 0, puts a testbed.DelayProxy in front of every
	// broker, so client<->broker and follower<->leader hops each cost
	// this much one way.
	oneWay time.Duration
	// countBytes puts a byte-counting relay in front of every broker
	// (traced runs only).
	countBytes bool
}

type topicSpec struct {
	name       string
	partitions int
	rf         int
	// retention, when > 0, is the topic's retention; the workload then
	// sweeps with Fabric.EnforceRetention as a broker's operator would.
	retention time.Duration
}

// testCluster is a fresh file-backed, replicated clusternet cluster in
// its own temporary directory.
type testCluster struct {
	fabric *broker.Fabric
	net    *clusternet.Cluster
	dir    string
	relays []*relay
	stops  []func()
	// serveS is the time spent in clusternet.Serve and CreateTopic.
	serveS float64
	// goroutines is the resident goroutine count before any client
	// dialled.
	goroutines int
}

func startCluster(spec clusterSpec, topics ...topicSpec) (*testCluster, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	tc := &testCluster{dir: dir, fabric: broker.NewFabric(nil)}
	tc.fabric.MinInsyncReplicas = spec.minISR
	for i := 0; i < spec.brokers; i++ {
		info := cluster.BrokerInfo{ID: i, VCPUs: 2, MemGB: 8, DataDir: filepath.Join(dir, fmt.Sprintf("broker-%d", i))}
		if _, err := tc.fabric.AddBroker(info); err != nil {
			tc.close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	t0 := time.Now()
	tc.net, err = clusternet.Serve(tc.fabric, clusternet.Options{
		AllowAnonymous: true,
		Replication:    true,
		Advertise: func(_ int, bound string) (string, error) {
			return tc.advertise(spec, bound)
		},
	})
	if err != nil {
		tc.close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, t := range topics {
		cfg := cluster.TopicConfig{Partitions: t.partitions, ReplicationFactor: t.rf, Retention: t.retention}
		if _, err := tc.fabric.CreateTopic(t.name, "", cfg); err != nil {
			tc.close()
			return nil, fmt.Errorf("cluster: create topic %s: %w", t.name, err)
		}
	}
	tc.serveS = time.Since(t0).Seconds()
	tc.settle()
	return tc, nil
}

// settle waits until the controller's metadata epoch has stood still
// for 100 ms. Topic creation bumps it, and every broker then pushes the
// new metadata to its connections from a watcher goroutine; a client
// that dials into such a push can read the pushed v2 frame before it
// has switched its own reader from the v1 handshake framing, and fails
// with "bad header" (about one set-up in ten without this wait; see
// README.md, known gaps).
//
// Then it takes the cluster's resident goroutine count, the baseline
// that goroutines_per_conn subtracts.
func (tc *testCluster) settle() {
	epoch, since := tc.fabric.Ctl.Epoch(), time.Now()
	for time.Since(since) < 100*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if e := tc.fabric.Ctl.Epoch(); e != epoch {
			epoch, since = e, time.Now()
		}
	}
	tc.goroutines = residentGoroutines()
}

// advertise chains the emulated link and the counting relay in front of
// a broker's bound address.
func (tc *testCluster) advertise(spec clusterSpec, bound string) (string, error) {
	addr := bound
	if spec.oneWay > 0 {
		proxied, stop, err := testbed.DelayProxy(addr, spec.oneWay)
		if err != nil {
			return "", err
		}
		tc.stops = append(tc.stops, stop)
		addr = proxied
	}
	if spec.countBytes {
		r, err := startRelay(addr)
		if err != nil {
			return "", err
		}
		tc.relays = append(tc.relays, r)
		addr = r.addr
	}
	return addr, nil
}

// dial opens one of the workload's wire clients against broker 0.
func (tc *testCluster) dial(windowBytes int) (*wire.Client, error) {
	return wire.DialOptions(tc.net.Addr(0), wire.Options{Anonymous: true, PoolSize: 1, StreamWindowBytes: windowBytes})
}

// relayBytes sums the counting relays: bytes toward brokers and back.
func (tc *testCluster) relayBytes() (up, down int64) {
	for _, r := range tc.relays {
		up += r.up.Load()
		down += r.down.Load()
	}
	return up, down
}

// diskBytes is the size of every file under the brokers' data
// directories.
func (tc *testCluster) diskBytes() (int64, error) { return dirBytes(tc.dir) }

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("measure disk: %w", err)
	}
	return total, nil
}

// retainedEvents counts the events every replica log of the topic still
// holds (end offset minus start offset, summed over replicas).
func (tc *testCluster) retainedEvents(t topicSpec) (int64, error) {
	meta, err := tc.fabric.Ctl.Topic(t.name)
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	var total int64
	for _, pm := range meta.Partitions {
		for _, id := range pm.Replicas {
			l, err := tc.fabric.BrokerLog(id, t.name, pm.ID)
			if err != nil {
				return 0, fmt.Errorf("cluster: %w", err)
			}
			total += l.EndOffset() - l.StartOffset()
		}
	}
	return total, nil
}

// close tears the cluster down and removes its directory. Crashing each
// broker after its listener is gone is how the segment files get
// closed: the fabric has no other handle on a node's logs.
func (tc *testCluster) close() {
	if tc.net != nil {
		tc.net.Close()
	}
	for _, r := range tc.relays {
		r.close()
	}
	for _, stop := range tc.stops {
		stop()
	}
	for _, id := range tc.fabric.NodeIDs() {
		_ = tc.fabric.CrashBroker(id) // cannot fail: the id was just listed
	}
	if err := os.RemoveAll(tc.dir); err != nil {
		leftBehind.Add(1)
		fmt.Fprintln(os.Stderr, "bench: cluster:", err)
	}
}

// leftBehind counts the run directories this process could not remove;
// the harness fails the run on any.
var leftBehind atomic.Int64

// waitGoroutines waits for the goroutine count to fall back to base
// (connection teardown is asynchronous) and returns the final excess.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// relay forwards TCP to target, counting payload bytes each way.
type relay struct {
	addr   string
	target string
	ln     net.Listener
	up     atomic.Int64 // client -> broker
	down   atomic.Int64 // broker -> client

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{addr: ln.Addr().String(), target: target, ln: ln}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		src, err := r.ln.Accept()
		if err != nil {
			return
		}
		dst, err := net.Dial("tcp", r.target)
		if err != nil {
			src.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			src.Close()
			dst.Close()
			return
		}
		r.conns = append(r.conns, src, dst)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(dst, src, &r.up)
		go r.pipe(src, dst, &r.down)
	}
}

func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	defer dst.Close()
	_, _ = io.Copy(countWriter{dst, n}, src) // either side closing ends the pipe
}

type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting, drops every relayed connection and waits for
// the pipes to end.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
