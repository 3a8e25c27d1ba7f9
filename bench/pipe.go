package main

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/wire"
)

// pipeSpec shapes the producer -> topic -> consumer path that
// steady_rf3 and paced_wan_acksall drive (trigger_fsmon uses the
// producer half and consumes through triggers).
type pipeSpec struct {
	cluster clusterSpec
	topics  []topicSpec // the producer writes topics[0]
	acks    broker.Acks
	// consume attaches an SDK consumer to every partition of topics[0].
	consume bool
	// hdrInKey says where events carry the checker header.
	hdrInKey bool
	// stride thins latency sampling (1 = every event).
	stride uint64
}

// pipe is one brought-up instance of a pipeSpec: a fresh cluster, two
// wire clients, the SDK producer and (optionally) consumer, and the
// checker and recorder everything handed out goes through.
type pipe struct {
	spec pipeSpec
	env  *env

	tc      *testCluster
	clients []*wire.Client
	prod    *client.Producer
	prodT   *tracedTransport // nil untraced
	cons    *client.Consumer
	loop    *consumeLoop
	chk     *checker
	rec     *recorder
	ops     *ops
	watch   watch
}

func (p *pipe) up() error {
	spec := p.spec
	spec.cluster.countBytes = p.env.tr != nil
	tc, err := startCluster(spec.cluster, spec.topics...)
	if err != nil {
		return err
	}
	p.tc = tc
	p.ops = &ops{}
	p.rec = newRecorder(spec.stride)
	topic := spec.topics[0]
	p.chk = newChecker(topic.partitions, spec.hdrInKey, spec.consume)

	pc, err := tc.dial(0)
	if err != nil {
		return fmt.Errorf("dial producer client: %w", err)
	}
	p.clients = append(p.clients, pc)
	p.watch = watch{tr: p.env.tr, short: p.env.short, tc: tc, via: pc, topics: spec.topics, recs: []*recorder{p.rec}}
	pt, prodT := p.env.tr.transport(pc)
	p.prodT = prodT
	p.prod = client.NewProducer(pt, topic.name, client.ProducerConfig{Acks: spec.acks, AcksSet: true})

	if !spec.consume {
		return nil
	}
	cc, err := tc.dial(0)
	if err != nil {
		return fmt.Errorf("dial consumer client: %w", err)
	}
	p.clients = append(p.clients, cc)
	ct, consT := p.env.tr.transport(cc)
	p.cons = client.NewConsumer(ct, consumerConfig)
	parts := make([]int, topic.partitions)
	for i := range parts {
		parts[i] = i
	}
	if err := p.cons.Assign(topic.name, parts...); err != nil {
		return fmt.Errorf("assign: %w", err)
	}
	p.loop = startConsumeLoop(p.cons, p.chk, p.rec, p.ops, consT)
	return nil
}

// down closes the SDK objects, the clients and the cluster. The load
// loops must already have stopped, except the consume loop, which down
// halts.
func (p *pipe) down() {
	p.watch.stop()
	if p.loop != nil {
		p.loop.halt()
	}
	if p.cons != nil {
		_ = p.cons.Close() // standalone consumer: Close cannot fail
	}
	if p.prod != nil {
		_ = p.prod.Close() // delivery errors were already read through Errors
	}
	for _, c := range p.clients {
		_ = c.Close() // tearing down: a close error changes nothing
	}
	if p.tc != nil {
		p.tc.close()
	}
	*p = pipe{spec: p.spec, env: p.env}
}

// systemChecks fails the run on any delivery error, misroute or
// under-replicated partition left at quiescence.
func (p *pipe) systemChecks() {
	if errs := p.prod.Errors(); len(errs) > 0 {
		p.chk.fail(int64(len(errs)), "producer: %v", errs[0])
	}
	p.watch.clusterChecks(p.chk)
}
