// Package wfmon reproduces the Dynamic Workflow Management use case
// (§VI-E): a Parsl-like task executor whose monitoring layer is
// pluggable — either HTEX-style (each monitoring event is a synchronous
// write to a shared central database, serialized by the database lock)
// or Octopus-style (events are batched and published asynchronously to
// the event fabric, off the workers' critical path).
//
// Figure 8 compares the two by "async overhead per event": makespan
// minus ideal compute time, divided by the number of monitoring events.
// SimulateRun computes this with a deterministic list-scheduling model;
// Executor + the Monitor implementations run the same workload for real
// against a fabric (used by tests and examples/workflow).
package wfmon

import (
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/event"
)

// TaskEvent is one monitoring record: task launched / completed plus
// resource info, the events the Octopus-based Parsl monitor publishes.
type TaskEvent struct {
	Task     int       `json:"task"`
	Node     int       `json:"node"`
	Worker   int       `json:"worker"`
	Kind     string    `json:"kind"` // "launch", "result", "resource", "failure"
	Time     time.Time `json:"time"`
	Duration float64   `json:"duration_ms,omitempty"`
}

// Monitor receives task events from the executor.
type Monitor interface {
	// Record observes one event; implementations decide whether the
	// caller blocks (HTEX) or not (Octopus).
	Record(ev TaskEvent)
	// Flush blocks until all recorded events are durable.
	Flush()
}

// --- Real implementations ---

// HTEXMonitor emulates Parsl's default monitoring: synchronous inserts
// into one shared database guarded by a lock. WriteLatency models the
// insert cost (SQLite over shared filesystems on HPC is tens of ms).
type HTEXMonitor struct {
	WriteLatency time.Duration
	mu           sync.Mutex
	Rows         []TaskEvent
}

// NewHTEXMonitor creates the database-backed monitor.
func NewHTEXMonitor(writeLatency time.Duration) *HTEXMonitor {
	return &HTEXMonitor{WriteLatency: writeLatency}
}

// Record blocks the calling worker for the (serialized) DB write.
func (m *HTEXMonitor) Record(ev TaskEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.WriteLatency > 0 {
		time.Sleep(m.WriteLatency)
	}
	m.Rows = append(m.Rows, ev)
}

// Flush is a no-op: writes are already durable.
func (m *HTEXMonitor) Flush() {}

// Count returns stored rows.
func (m *HTEXMonitor) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.Rows)
}

// OctopusMonitor publishes monitoring events through the SDK producer:
// batched, asynchronous, off the worker critical path.
type OctopusMonitor struct {
	producer *client.Producer
}

// NewOctopusMonitor creates a fabric-backed monitor publishing to topic.
func NewOctopusMonitor(t client.Transport, topic string) *OctopusMonitor {
	return &OctopusMonitor{
		producer: client.NewProducer(t, topic, client.ProducerConfig{BatchEvents: 128}),
	}
}

// Record enqueues the event; workers do not wait for delivery.
func (m *OctopusMonitor) Record(ev TaskEvent) {
	_ = m.producer.Send(event.New("", ev))
}

// Flush drains the producer buffer.
func (m *OctopusMonitor) Flush() { _ = m.producer.Flush() }

// Close stops the underlying producer.
func (m *OctopusMonitor) Close() { _ = m.producer.Close() }

// --- Executor ---

// RunConfig describes one Figure 8 cell.
type RunConfig struct {
	// Tasks is the task count (paper: 128).
	Tasks int
	// Nodes and WorkersPerNode give the worker layout (paper: 8 nodes,
	// 1–64 workers total; workers = total across nodes).
	Nodes   int
	Workers int
	// TaskDuration is the per-task compute time (0, 10 ms, 100 ms).
	TaskDuration time.Duration
	// EventsPerTask is how many monitoring events each task emits
	// (launch + result + resource snapshots; default 4).
	EventsPerTask int
}

func (c *RunConfig) fill() {
	if c.Tasks <= 0 {
		c.Tasks = 128
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.EventsPerTask <= 0 {
		c.EventsPerTask = 4
	}
}

// Result summarizes one run.
type Result struct {
	Makespan time.Duration
	// Ideal is the monitoring-free compute makespan:
	// ceil(tasks/workers) × duration.
	Ideal  time.Duration
	Events int
	// OverheadPerEventMs is Figure 8's y-axis.
	OverheadPerEventMs float64
}

// Run executes the workload for real: Workers goroutines drain a task
// queue, each task sleeps TaskDuration and reports EventsPerTask events
// to the monitor. The reported overhead uses wall-clock time.
func Run(cfg RunConfig, m Monitor) Result {
	cfg.fill()
	tasks := make(chan int, cfg.Tasks)
	for i := 0; i < cfg.Tasks; i++ {
		tasks <- i
	}
	close(tasks)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			node := worker % cfg.Nodes
			for task := range tasks {
				m.Record(TaskEvent{Task: task, Node: node, Worker: worker, Kind: "launch", Time: time.Now()})
				if cfg.TaskDuration > 0 {
					time.Sleep(cfg.TaskDuration)
				}
				for e := 0; e < cfg.EventsPerTask-2; e++ {
					m.Record(TaskEvent{Task: task, Node: node, Worker: worker, Kind: "resource", Time: time.Now()})
				}
				m.Record(TaskEvent{
					Task: task, Node: node, Worker: worker, Kind: "result",
					Time: time.Now(), Duration: float64(cfg.TaskDuration) / float64(time.Millisecond),
				})
			}
		}(w)
	}
	wg.Wait()
	m.Flush()
	makespan := time.Since(start)
	return summarize(cfg, makespan)
}

func summarize(cfg RunConfig, makespan time.Duration) Result {
	waves := (cfg.Tasks + cfg.Workers - 1) / cfg.Workers
	ideal := time.Duration(waves) * cfg.TaskDuration
	events := cfg.Tasks * cfg.EventsPerTask
	overhead := makespan - ideal
	if overhead < 0 {
		overhead = 0
	}
	return Result{
		Makespan:           makespan,
		Ideal:              ideal,
		Events:             events,
		OverheadPerEventMs: float64(overhead) / float64(time.Millisecond) / float64(events),
	}
}

// --- Deterministic model (Figure 8 regeneration) ---

// MonitorModel parameterizes the analytic run for one monitoring system.
type MonitorModel struct {
	Name string
	// SyncCost blocks the worker per event (HTEX: the DB insert;
	// Octopus: the local enqueue).
	SyncCost time.Duration
	// Serialized marks SyncCost as globally serialized (one DB lock).
	Serialized bool
	// AsyncBatch and AsyncBatchCost model a background publisher that
	// drains batches off the critical path; the final drain extends the
	// makespan if it outlives the compute.
	AsyncBatch     int
	AsyncBatchCost time.Duration
}

// HTEXModel matches Parsl HTEX monitoring on an HPC shared filesystem:
// each event is a ~35 ms synchronous insert on the worker's critical
// path. Writes from different workers proceed concurrently (the DB
// serializes internally at far finer granularity), which is what makes
// the per-event overhead fall as 1/workers in Figure 8 — "the
// relatively static cost of writing events to a database" amortized
// over parallel workers.
func HTEXModel() MonitorModel {
	return MonitorModel{Name: "HTEX", SyncCost: 35 * time.Millisecond}
}

// OctopusModel matches the SDK producer path: ~0.3 ms local enqueue,
// background batches of 128 events costing one 47 ms remote RTT each.
func OctopusModel() MonitorModel {
	return MonitorModel{
		Name:           "Octopus",
		SyncCost:       300 * time.Microsecond,
		AsyncBatch:     128,
		AsyncBatchCost: 47 * time.Millisecond,
	}
}

// SimulateRun computes the run deterministically: workers advance task
// by task; serialized sync costs contend on a shared resource; async
// publishing proceeds in the background and only the final drain can
// extend the makespan.
func SimulateRun(cfg RunConfig, m MonitorModel) Result {
	cfg.fill()
	workerFree := make([]time.Duration, cfg.Workers)
	var dbFree time.Duration      // shared-lock availability (HTEX)
	var lastEnqueue time.Duration // async path
	events := 0
	for task := 0; task < cfg.Tasks; task++ {
		// List scheduling: next task goes to the earliest-free worker.
		w := 0
		for i := 1; i < cfg.Workers; i++ {
			if workerFree[i] < workerFree[w] {
				w = i
			}
		}
		t := workerFree[w] + cfg.TaskDuration
		for e := 0; e < cfg.EventsPerTask; e++ {
			events++
			if m.Serialized {
				start := t
				if dbFree > start {
					start = dbFree
				}
				t = start + m.SyncCost
				dbFree = t
			} else {
				t += m.SyncCost
			}
		}
		if t > lastEnqueue {
			lastEnqueue = t
		}
		workerFree[w] = t
	}
	makespan := time.Duration(0)
	for _, f := range workerFree {
		if f > makespan {
			makespan = f
		}
	}
	if m.AsyncBatch > 0 {
		// Background publisher drains concurrently with compute; only
		// the tail batch extends the makespan.
		batches := (events + m.AsyncBatch - 1) / m.AsyncBatch
		drainDone := lastEnqueue + m.AsyncBatchCost
		pipelined := time.Duration(batches) * m.AsyncBatchCost
		if pipelined > drainDone {
			drainDone = pipelined
		}
		if drainDone > makespan {
			makespan = drainDone
		}
	}
	return summarize(cfg, makespan)
}
