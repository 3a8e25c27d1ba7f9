// Package trigger implements Octopus Triggers (§IV-D): managed,
// FaaS-style event handlers. Each trigger owns a consumer group on its
// topic, optionally filters events through an EventBridge-style pattern,
// invokes a user function with batches of up to 10 000 events / 6 MB,
// retries failures, and autoscales its concurrency by re-evaluating the
// topic's processing pressure at a fixed interval — the behavior of the
// AWS Lambda + EventBridge deployment the paper uses.
package trigger

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/vclock"
)

// Action is the user function a trigger invokes. Implementations may
// call external services (the paper's Globus Transfer requests), publish
// derived events, or update local state. A non-nil error causes a retry
// up to Config.MaxRetries.
type Action func(inv *Invocation) error

// Invocation carries one batch delivery to an Action.
type Invocation struct {
	// TriggerID identifies the trigger.
	TriggerID string
	// Events is the filtered batch (pattern matches only). The slice is
	// the worker's fetch buffer: it is valid until the action returns,
	// and an action that keeps events longer copies them.
	Events []event.Event
	// Partition is the source partition.
	Partition int
	// Attempt counts delivery attempts for this batch (1 = first).
	Attempt int
	// OnBehalfOf is the delegated identity the trigger acts as.
	OnBehalfOf string
}

// Config describes a trigger deployment, the payload of the OWS
// PUT /trigger route.
type Config struct {
	// ID names the trigger (unique within the runtime).
	ID string
	// Topic is the source topic.
	Topic string
	// Group is the trigger's private consumer group
	// (default "trigger-<ID>").
	Group string
	// Pattern optionally filters events; nil invokes on everything.
	// The JSON source form is kept so OWS can round-trip it.
	PatternJSON string
	// BatchSize caps events per invocation (default 100, max 10 000).
	BatchSize int
	// BatchBytes caps payload bytes per invocation (default 6 MB).
	BatchBytes int
	// BatchWindow is the idle re-check and retry back-off interval
	// (default 100 ms). Delivery is append-driven: an idle worker is
	// woken by the append itself, and BatchWindow only bounds how long
	// it goes without looking again for what no append announces (a
	// moved leader, a partition that failed to read) and how long it
	// waits before redelivering a failed batch. Batches fill under load
	// because events accumulate while the action runs, not by waiting.
	BatchWindow time.Duration
	// MinConcurrency / MaxConcurrency bound the worker pool
	// (defaults 1 and 128; concurrency never exceeds partition count).
	MinConcurrency int
	MaxConcurrency int
	// EvalInterval is the pressure re-evaluation period (default 1 min,
	// matching Lambda's behavior in §IV-D).
	EvalInterval time.Duration
	// Growth is the per-evaluation concurrency multiplier while under
	// pressure (default 3.5: 3 → 128 in four evaluations, Figure 4).
	Growth float64
	// MaxRetries bounds redelivery of a failing batch (default 2).
	MaxRetries int
	// OnBehalfOf is the identity the trigger acts for.
	OnBehalfOf string
}

func (c *Config) fill() error {
	if c.ID == "" {
		return errors.New("trigger: config needs an ID")
	}
	if c.Topic == "" {
		return errors.New("trigger: config needs a Topic")
	}
	if c.Group == "" {
		c.Group = "trigger-" + c.ID
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchSize > 10000 {
		c.BatchSize = 10000
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 6 << 20
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 100 * time.Millisecond
	}
	if c.MinConcurrency <= 0 {
		c.MinConcurrency = 1
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 128
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = time.Minute
	}
	if c.Growth <= 1 {
		c.Growth = 3.5
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	return nil
}

// NextConcurrency is the autoscaling policy: given the current
// concurrency and observed backlog, it returns the next concurrency.
// It is a pure function shared by the live runtime and the testbed
// simulator (Figure 4).
//
// Scaling up multiplies by growth while backlog exceeds what the current
// workers can drain in one evaluation interval; scaling down snaps to
// the needed level. Concurrency is clamped to [min, min(max, parts)].
func NextConcurrency(cur int, backlog int64, batch, parts, minC, maxC int, growth float64) int {
	limit := maxC
	if parts < limit {
		limit = parts
	}
	if limit < minC {
		limit = minC
	}
	// needed is how many single-batch workers the backlog justifies.
	needed := int(math.Ceil(float64(backlog) / float64(batch)))
	switch {
	case needed > cur:
		next := int(math.Ceil(float64(cur) * growth))
		if next > needed {
			next = needed
		}
		if next > limit {
			next = limit
		}
		return next
	case needed < cur:
		next := needed
		if next < minC {
			next = minC
		}
		return next
	default:
		return cur
	}
}

// Stats is a live snapshot of a trigger's activity.
type Stats struct {
	Concurrency       int
	ActiveInvocations int
	Invocations       int64
	EventsDelivered   int64
	EventsFiltered    int64
	Failures          int64
	DeadLettered      int64
	// Skipped counts offsets retention deleted before the trigger read
	// them.
	Skipped int64
	Backlog int64
}

// Trigger is a deployed trigger instance.
type Trigger struct {
	cfg     Config
	pat     *pattern.Pattern
	action  Action
	fabric  *broker.Fabric
	clock   vclock.Clock
	metrics *metrics.Registry

	mu          sync.Mutex
	concurrency int
	parts       []int
	stopCh      chan struct{}
	stopped     bool
	wg          sync.WaitGroup
	// retire is closed on resize and on Stop: the current worker set
	// exits, parked or not, and a replacement gets a channel of its own.
	retire chan struct{}

	active          atomic.Int64
	invocations     atomic.Int64
	eventsDelivered atomic.Int64
	eventsFiltered  atomic.Int64
	failures        atomic.Int64
	deadLettered    atomic.Int64
	skipped         atomic.Int64

	// ConcurrencySeries and BacklogSeries record the Figure 4/7 curves.
	ConcurrencySeries *metrics.Series
	BacklogSeries     *metrics.Series
}

// New validates the config and builds a trigger bound to a fabric.
func New(f *broker.Fabric, cfg Config, action Action) (*Trigger, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if action == nil {
		return nil, errors.New("trigger: nil action")
	}
	var pat *pattern.Pattern
	if cfg.PatternJSON != "" {
		p, err := pattern.Compile([]byte(cfg.PatternJSON))
		if err != nil {
			return nil, fmt.Errorf("trigger %s: %w", cfg.ID, err)
		}
		pat = p
	}
	meta, err := f.Ctl.Topic(cfg.Topic)
	if err != nil {
		return nil, err
	}
	parts := make([]int, meta.Config.Partitions)
	for i := range parts {
		parts[i] = i
	}
	t := &Trigger{
		cfg:               cfg,
		pat:               pat,
		action:            action,
		fabric:            f,
		clock:             f.Clock,
		metrics:           f.Metrics,
		concurrency:       cfg.MinConcurrency,
		parts:             parts,
		stopCh:            make(chan struct{}),
		ConcurrencySeries: metrics.NewSeries(cfg.ID + ".concurrency"),
		BacklogSeries:     metrics.NewSeries(cfg.ID + ".backlog"),
	}
	return t, nil
}

// Config returns the trigger's (filled) configuration.
func (t *Trigger) Config() Config { return t.cfg }

// Start launches the workers and the autoscaler.
func (t *Trigger) Start() {
	t.mu.Lock()
	n := t.concurrency
	t.mu.Unlock()
	t.spawnWorkers(n)
	t.wg.Add(1)
	go t.scaleLoop()
}

// Stop halts workers and the autoscaler and waits for them.
func (t *Trigger) Stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	close(t.stopCh)
	if t.retire != nil {
		close(t.retire)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// spawnWorkers retires the current worker set and starts n workers, so a
// resize is a full worker-set replacement. A stopped trigger starts none.
func (t *Trigger) spawnWorkers(n int) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	if t.retire != nil {
		close(t.retire)
	}
	retire := make(chan struct{})
	t.retire = retire
	t.concurrency = n
	t.mu.Unlock()
	for i := 0; i < n; i++ {
		t.wg.Add(1)
		go t.worker(i, n, retire)
	}
}

// worker is the state of one worker goroutine.
type worker struct {
	t *Trigger
	// positions is the next offset to read, per partition served.
	positions map[int]int64
	// fetched and matched are the reused fetch and filter buffers.
	fetched, matched []event.Event
	// dry lists the partitions the last round read to their end.
	dry    []int
	waiter *eventlog.Waiter
}

// worker services the partitions congruent to idx modulo n until retire
// closes (a resize or Stop).
func (t *Trigger) worker(idx, n int, retire <-chan struct{}) {
	defer t.wg.Done()
	w := &worker{t: t, positions: make(map[int]int64), waiter: eventlog.NewWaiter()}
	for {
		select {
		case <-retire:
			return
		default:
		}
		progressed := false
		w.dry = w.dry[:0]
		for p := idx; p < len(t.parts); p += n {
			switch consumed, err := w.processOne(p); {
			case consumed:
				progressed = true
			case err == nil:
				w.dry = append(w.dry, p)
			default:
				// Could not read: not armed, so the next try is when
				// the worker next goes round, BatchWindow from now at
				// the latest.
			}
		}
		if !progressed {
			w.park(retire)
		}
	}
}

// park blocks until an append to one of the dry partitions, a stop or
// resize, or BatchWindow — the bound on going without a look at what no
// append announces: a partition that failed to read, or one whose
// leader has moved to another log. It parks no goroutine per partition:
// the worker's one Waiter is armed on every dry partition's log.
func (w *worker) park(retire <-chan struct{}) {
	t := w.t
	for _, p := range w.dry {
		log, err := t.fabric.LeaderLog(t.cfg.Topic, p)
		if err != nil {
			continue
		}
		if !w.waiter.Arm(log, w.positions[p]) {
			return // appended to (or closed) since the read: go round
		}
	}
	w.waiter.Wait(retire, t.clock.After(t.cfg.BatchWindow))
}

// processOne fetches and handles one batch from partition p. It reports
// whether it consumed anything (events, or offsets retention deleted);
// false without an error is a partition read to its end.
func (w *worker) processOne(p int) (consumed bool, err error) {
	t := w.t
	pos, ok := w.positions[p]
	if !ok {
		if off := t.fabric.Groups.Committed(t.cfg.Group, t.cfg.Topic, p); off >= 0 {
			pos = off
		} else {
			start, err := t.fabric.StartOffset(t.cfg.Topic, p)
			if err != nil {
				return false, err
			}
			pos = start
		}
		w.positions[p] = pos
	}
	res, err := t.fabric.FetchInto("", t.cfg.Topic, p, pos, t.cfg.BatchSize, t.cfg.BatchBytes, w.fetched[:0])
	if err != nil {
		if errors.Is(err, eventlog.ErrOffsetOutOfRange) {
			// Retention deleted what the position points at: resume
			// from what is left and account for the gap. (A position
			// past the log end is a shorter log after a leader change;
			// that one is waited out like any other failure.)
			if start, serr := t.fabric.StartOffset(t.cfg.Topic, p); serr == nil && start > pos {
				t.skipped.Add(start - pos)
				t.metrics.Counter("trigger." + t.cfg.ID + ".skipped").Add(start - pos)
				w.positions[p] = start
				t.fabric.Groups.CommitDirect(t.cfg.Group, t.cfg.Topic, p, start)
				return true, nil
			}
		}
		return false, err
	}
	batch := res.Events
	w.fetched = batch
	if len(batch) == 0 {
		return false, nil
	}
	matched := batch
	if t.pat != nil {
		matched = w.matched[:0]
		for i := range batch {
			if t.pat.MatchJSON(batch[i].Value) {
				matched = append(matched, batch[i])
			}
		}
		w.matched = matched
		t.eventsFiltered.Add(int64(len(batch) - len(matched)))
	}
	if len(matched) > 0 {
		t.invoke(p, matched)
	}
	next := batch[len(batch)-1].Offset + 1
	w.positions[p] = next
	t.fabric.Groups.CommitDirect(t.cfg.Group, t.cfg.Topic, p, next)
	return true, nil
}

func (t *Trigger) invoke(p int, evs []event.Event) {
	t.active.Add(1)
	t.invocations.Add(1)
	defer t.active.Add(-1)
	inv := &Invocation{
		TriggerID:  t.cfg.ID,
		Events:     evs,
		Partition:  p,
		OnBehalfOf: t.cfg.OnBehalfOf,
	}
	for inv.Attempt = 1; ; inv.Attempt++ {
		if err := t.safeAction(inv); err == nil {
			t.eventsDelivered.Add(int64(len(evs)))
			return
		}
		t.failures.Add(1)
		if inv.Attempt > t.cfg.MaxRetries {
			t.deadLettered.Add(int64(len(evs)))
			t.metrics.Counter("trigger." + t.cfg.ID + ".dead_lettered").Add(int64(len(evs)))
			return
		}
		t.clock.Sleep(t.cfg.BatchWindow)
	}
}

// safeAction isolates panicking user functions, converting them to
// errors so one bad batch cannot take down the runtime.
func (t *Trigger) safeAction(inv *Invocation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trigger %s: action panic: %v", t.cfg.ID, r)
		}
	}()
	return t.action(inv)
}

// scaleLoop re-evaluates processing pressure every EvalInterval and
// resizes the worker pool, mirroring Lambda's per-minute scaling.
func (t *Trigger) scaleLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopCh:
			return
		case <-t.clock.After(t.cfg.EvalInterval):
		}
		backlog, err := t.fabric.PendingEvents(t.cfg.Topic, t.cfg.Group)
		if err != nil {
			continue
		}
		now := t.clock.Now()
		t.BacklogSeries.Record(now, float64(backlog))
		t.mu.Lock()
		cur := t.concurrency
		t.mu.Unlock()
		next := NextConcurrency(cur, backlog, t.cfg.BatchSize, len(t.parts), t.cfg.MinConcurrency, t.cfg.MaxConcurrency, t.cfg.Growth)
		t.ConcurrencySeries.Record(now, float64(next))
		if next != cur {
			t.spawnWorkers(next)
		}
	}
}

// Stats returns a snapshot of trigger activity.
func (t *Trigger) Stats() Stats {
	backlog, _ := t.fabric.PendingEvents(t.cfg.Topic, t.cfg.Group)
	t.mu.Lock()
	concurrency := t.concurrency
	t.mu.Unlock()
	return Stats{
		Concurrency:       concurrency,
		ActiveInvocations: int(t.active.Load()),
		Invocations:       t.invocations.Load(),
		EventsDelivered:   t.eventsDelivered.Load(),
		EventsFiltered:    t.eventsFiltered.Load(),
		Failures:          t.failures.Load(),
		DeadLettered:      t.deadLettered.Load(),
		Skipped:           t.skipped.Load(),
		Backlog:           backlog,
	}
}
