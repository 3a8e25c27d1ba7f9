// Package sdl implements the Self-Driving Laboratory use case (§VI-A):
// instruments, robotic actions and computational stages emitting a
// global event log through Octopus, giving "transparent and real-time
// insights into ongoing experiment workflows" plus provenance that can
// be traced back "through the decision-making and experiment processes".
//
// The lab is simulated: instruments take configurable step durations and
// can fail with a configurable probability, which is exactly what the
// event log must surface.
package sdl

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/vclock"
)

// Stage is one step of an SDL experiment workflow.
type Stage string

// Workflow stages of a typical materials-discovery loop.
const (
	StageDesign       Stage = "design"
	StageSynthesize   Stage = "synthesize"
	StageCharacterize Stage = "characterize"
	StageAnalyze      Stage = "analyze"
	StageDecide       Stage = "decide"
)

// Stages returns the canonical stage order.
func Stages() []Stage {
	return []Stage{StageDesign, StageSynthesize, StageCharacterize, StageAnalyze, StageDecide}
}

// LogEvent is one entry in the global lab log: the paper's event schema
// ("name of the instrument, timestamp, experiment identifier, action
// description, and ... associated metadata or results").
type LogEvent struct {
	Instrument string         `json:"instrument"`
	Experiment string         `json:"experiment"`
	Stage      string         `json:"stage"`
	Action     string         `json:"action"` // "start", "complete", "error"
	Time       time.Time      `json:"time"`
	Metadata   map[string]any `json:"metadata,omitempty"`
}

// Instrument is one lab device (robot arm, synthesis line, XRD...).
type Instrument struct {
	Name string
	// StepTime is how long one action takes.
	StepTime time.Duration
	// FailEvery makes every Nth action fail (0 = never), exercising the
	// error-detection role of the log.
	FailEvery int
	steps     int
}

// Lab drives experiments and publishes every transition to the log
// topic through the SDK producer.
type Lab struct {
	Instruments map[Stage]*Instrument
	producer    *client.Producer
	clock       vclock.Clock
	expSeq      int
}

// NewLab wires a lab over a transport, publishing to topic.
func NewLab(t client.Transport, topic string, clock vclock.Clock) *Lab {
	if clock == nil {
		clock = vclock.Real{}
	}
	instruments := map[Stage]*Instrument{
		StageDesign:       {Name: "campaign-planner", StepTime: time.Millisecond},
		StageSynthesize:   {Name: "synthesis-robot", StepTime: 3 * time.Millisecond},
		StageCharacterize: {Name: "xrd-spectrometer", StepTime: 2 * time.Millisecond},
		StageAnalyze:      {Name: "hpc-analysis", StepTime: 2 * time.Millisecond},
		StageDecide:       {Name: "al-optimizer", StepTime: time.Millisecond},
	}
	return &Lab{
		Instruments: instruments,
		producer:    client.NewProducer(t, topic, client.ProducerConfig{BatchEvents: 16}),
		clock:       clock,
	}
}

// RunExperiment executes one full workflow iteration, emitting start /
// complete (or error) events per stage. It returns the experiment id
// and whether every stage succeeded.
func (l *Lab) RunExperiment() (string, bool, error) {
	l.expSeq++
	exp := fmt.Sprintf("exp-%04d", l.expSeq)
	ok := true
	for _, stage := range Stages() {
		inst := l.Instruments[stage]
		if err := l.emit(inst.Name, exp, stage, "start", nil); err != nil {
			return exp, false, err
		}
		l.clock.Sleep(inst.StepTime)
		inst.steps++
		if inst.FailEvery > 0 && inst.steps%inst.FailEvery == 0 {
			ok = false
			if err := l.emit(inst.Name, exp, stage, "error", map[string]any{"reason": "actuation fault"}); err != nil {
				return exp, false, err
			}
			break
		}
		meta := map[string]any{"step": inst.steps}
		if stage == StageAnalyze {
			meta["score"] = 0.5 + float64(l.expSeq%50)/100
		}
		if err := l.emit(inst.Name, exp, stage, "complete", meta); err != nil {
			return exp, false, err
		}
	}
	if err := l.producer.Flush(); err != nil {
		return exp, ok, err
	}
	return exp, ok, nil
}

func (l *Lab) emit(instrument, exp string, stage Stage, action string, meta map[string]any) error {
	return l.producer.Send(event.New(exp, LogEvent{
		Instrument: instrument,
		Experiment: exp,
		Stage:      string(stage),
		Action:     action,
		Time:       l.clock.Now(),
		Metadata:   meta,
	}))
}

// Close flushes and stops the lab's producer.
func (l *Lab) Close() error { return l.producer.Close() }

// Provenance is the reconstructed timeline of one experiment.
type Provenance struct {
	Experiment string
	Events     []LogEvent
	// Failed reports whether the trace contains an error event.
	Failed bool
}

// TraceExperiment consumes the log topic from the earliest offset and
// reconstructs the given experiment's provenance — the "trace back
// through the decision-making and experiment processes" capability.
func TraceExperiment(t client.Transport, topic, experiment string) (*Provenance, error) {
	c := client.NewConsumer(t, client.ConsumerConfig{Start: client.StartEarliest})
	defer c.Close()
	meta, err := t.TopicMeta(topic)
	if err != nil {
		return nil, err
	}
	for p := 0; p < meta.Config.Partitions; p++ {
		if err := c.Assign(topic, p); err != nil {
			return nil, err
		}
	}
	prov := &Provenance{Experiment: experiment}
	for {
		evs, err := c.Poll(500)
		if err != nil {
			return nil, err
		}
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			var le LogEvent
			doc, err := ev.JSON()
			if err != nil {
				continue
			}
			// Cheap decode via the typed event payload.
			if doc["experiment"] != experiment {
				continue
			}
			le.Instrument, _ = doc["instrument"].(string)
			le.Experiment = experiment
			le.Stage, _ = doc["stage"].(string)
			le.Action, _ = doc["action"].(string)
			le.Time = ev.Timestamp
			prov.Events = append(prov.Events, le)
			if le.Action == "error" {
				prov.Failed = true
			}
		}
	}
	sort.SliceStable(prov.Events, func(i, j int) bool {
		return prov.Events[i].Time.Before(prov.Events[j].Time)
	})
	return prov, nil
}

// StageCounts summarizes a log for dashboarding: events per stage, the
// "graphical representations of the experiment" admins consume.
func StageCounts(t client.Transport, topic string) (map[string]int, error) {
	c := client.NewConsumer(t, client.ConsumerConfig{Start: client.StartEarliest})
	defer c.Close()
	meta, err := t.TopicMeta(topic)
	if err != nil {
		return nil, err
	}
	for p := 0; p < meta.Config.Partitions; p++ {
		if err := c.Assign(topic, p); err != nil {
			return nil, err
		}
	}
	counts := make(map[string]int)
	for {
		evs, err := c.Poll(500)
		if err != nil {
			return nil, err
		}
		if len(evs) == 0 {
			return counts, nil
		}
		for _, ev := range evs {
			doc, err := ev.JSON()
			if err != nil {
				continue
			}
			if stage, ok := doc["stage"].(string); ok {
				counts[stage]++
			}
		}
	}
}
