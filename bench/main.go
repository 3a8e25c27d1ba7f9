// Command bench is the repository's scoreboard: one composed benchmark
// over the real path — client.Producer / client.Consumer over
// wire.Client (v2, router, sessions) against a clusternet cluster of
// three brokers with file-backed eventlog segments and replication over
// OpReplicaFetch — in four named workloads. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) repeats the workload at a
// third of its length with bench-side spans, a byte-counting relay, the
// OpStats scrape and the layer probes, and prints the per-layer metrics.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var workloads = []workloadDef{
	{Name: "steady_rf3", new: newSteadyRF3,
		Why: "closed loop, 256 B events, RF 3 acks=leader, writes beside reads: CPU-bound, so per-event cost in any layer of the produce or consume path moves events_per_s"},
	{Name: "paced_wan_acksall", new: newPacedWAN, paced: true,
		Why: "open loop at a fixed rate over 2 ms links with acks=all: replication commit wait, producer linger and session push set the latency; codec and append cost are noise"},
	{Name: "catchup_fanout", new: newCatchupFanout,
		Why: "read-only drain of a preloaded 64-partition log by two multiplexed-session consumers: eventlog read, FetchResp encode, session pump and client decode with no produce traffic"},
	{Name: "trigger_fsmon", new: newTriggerFsmon, paced: true,
		Why: "the automation path: fsmon JSON over the wire into pattern-filtered triggers, paced for latency then a backlog for throughput; only trigger, pattern and consumer groups do the work"},
}

// setups is how many times an untraced run sets the workload up; it
// reports the median as setup_s and measures on the last.
const setups = 3

// spanDir is where a traced run writes its spans.
const spanDir = "bench/out"

func main() {
	workload := flag.String("workload", "", "workload to run: steady_rf3, paced_wan_acksall, catchup_fanout or trigger_fsmon")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Float64("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two sets of three and compare the sets' medians")
	flag.Parse()

	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	default:
		err = runOne(*workload, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errWrongRun marks a run whose outputs failed the checker: it yields
// no metric.
var errWrongRun = errors.New("outputs failed the correctness check")

func runOne(name string, seed int64, seconds float64, traced bool) error {
	def, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", seconds)
	}
	window := time.Duration(seconds * float64(time.Second))
	var out *outcome
	defs := endToEnd
	if traced {
		out, err = runTraced(def, seed, window)
		defs = perLayer
	} else {
		out, err = runWorkload(def, &env{seed: seed, window: window}, setups)
	}
	if err != nil {
		return err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d window %v traced %v\n", name, seed, window, traced)
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", out.attempted, out.failed)
	if out.failed > 0 {
		return fmt.Errorf("%w: %d failed, first: %s", errWrongRun, out.failed, out.first)
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", name, d.Name)
		}
		fmt.Printf("%s %v %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload sets the workload up n times, measures on the last
// set-up, and fails the run if it leaves goroutines or directories
// behind.
func runWorkload(def *workloadDef, e *env, n int) (*outcome, error) {
	baseGoroutines := runtime.NumGoroutine()
	w, err := def.new(e)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	var out *outcome
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := w.setup()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && i == n-1 {
			out, err = w.measure()
		}
		w.teardown()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
	}
	if out.failed > 0 {
		return out, nil
	}
	if extra := waitGoroutines(baseGoroutines); extra > 0 {
		out.failed += int64(extra)
		out.first = fmt.Sprintf("%d goroutines left behind after teardown", extra)
	}
	if left := leftBehind.Load(); left > 0 {
		out.failed += left
		out.first = fmt.Sprintf("%d run directories left behind under %s", left, scratchRoot)
	}
	if out.values != nil {
		out.values["setup_s"] = median(setupS)
	}
	return out, nil
}

// runTraced runs the workload twice at a third of its length — untraced
// for the reference, then traced — and adds the layer probes. The
// end-to-end numbers of the traced run are used for one thing only: the
// tracing overhead.
func runTraced(def *workloadDef, seed int64, window time.Duration) (*outcome, error) {
	short := window / 3
	ref, err := runWorkload(def, &env{seed: seed, window: short, short: true}, 1)
	if err != nil || ref.failed > 0 {
		return ref, err
	}
	tr := newTracer()
	out, err := runWorkload(def, &env{seed: seed, window: short, short: true, tr: tr}, 1)
	if err != nil || out.failed > 0 {
		return out, err
	}
	if err := tr.log.write(filepath.Join(spanDir, def.Name+".spans.json")); err != nil {
		return nil, err
	}
	out.attempted += ref.attempted
	out.values["bench.trace_overhead_pct"] = traceOverheadPct(def.paced, ref.values, out.values)
	probes, err := runProbes(seed)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out.values[k] = v
	}
	return out, nil
}

// traceOverheadPct compares the traced run with the untraced reference
// on the workload's primary metric: median latency for the two paced
// workloads, throughput for the others. Positive = tracing cost.
func traceOverheadPct(paced bool, ref, traced map[string]float64) float64 {
	if paced {
		return (traced["e2e_p50_ms"]/ref["e2e_p50_ms"] - 1) * 100
	}
	return (ref["events_per_s"]/traced["events_per_s"] - 1) * 100
}
