package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/clusternet"
	"repro/internal/event"
	"repro/internal/testbed"
	"repro/internal/trigger"
	"repro/internal/wire"
)

func launch(t *testing.T) *Octopus {
	t.Helper()
	oct, err := Launch(Config{Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(oct.Shutdown)
	return oct
}

func TestQuickstartFlow(t *testing.T) {
	oct := launch(t)
	user, err := oct.Register("alice@uchicago.edu", "globus")
	if err != nil {
		t.Fatal(err)
	}
	topic, err := oct.CreateTopic(user, "instrument-data", TopicOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := topic.Producer()
	defer p.Close()
	for i := 0; i < 20; i++ {
		if err := p.SendJSON("", map[string]any{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	c := topic.Consumer(FromEarliest())
	defer c.Close()
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 20 && time.Now().Before(deadline) {
		evs, err := c.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		got += len(evs)
	}
	if got != 20 {
		t.Fatalf("consumed %d", got)
	}
}

func TestAccessControlAcrossUsers(t *testing.T) {
	oct := launch(t)
	alice, _ := oct.Register("alice@uchicago.edu", "globus")
	bob, _ := oct.Register("bob@anl.gov", "globus")
	topic, err := oct.CreateTopic(alice, "private", TopicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Bob cannot open or produce before the grant.
	if _, err := oct.OpenTopic(bob, "private"); !errors.Is(err, auth.ErrDenied) {
		t.Fatalf("open: %v", err)
	}
	// Grant read+describe; bob can open and consume, not produce.
	if err := topic.Grant(bob, auth.PermRead, auth.PermDescribe); err != nil {
		t.Fatal(err)
	}
	bt, err := oct.OpenTopic(bob, "private")
	if err != nil {
		t.Fatal(err)
	}
	p := bt.Producer()
	defer p.Close()
	if _, err := p.SendSync(event.New("", map[string]any{"x": 1})); !errors.Is(err, auth.ErrDenied) {
		t.Fatalf("bob produce: %v", err)
	}
	// Only the owner may grant.
	if err := bt.Grant(alice, auth.PermRead); !errors.Is(err, auth.ErrDenied) {
		t.Fatalf("non-owner grant: %v", err)
	}
}

func TestTriggerViaFacade(t *testing.T) {
	oct := launch(t)
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	topic, err := oct.CreateTopic(user, "fs-events", TopicOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var created []string
	_, err = topic.AddTrigger("replicate", TriggerOptions{
		Pattern: `{"value": {"event_type": ["created"]}}`,
	}, func(inv *trigger.Invocation) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inv.Events {
			doc, _ := e.JSON()
			created = append(created, doc["value"].(map[string]any)["path"].(string))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := topic.Producer()
	defer p.Close()
	_ = p.SendJSON("", map[string]any{"value": map[string]any{"event_type": "created", "path": "/a"}})
	_ = p.SendJSON("", map[string]any{"value": map[string]any{"event_type": "modified", "path": "/b"}})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(created)
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(created) != 1 || created[0] != "/a" {
		t.Fatalf("created = %v", created)
	}
}

func TestGroupConsumptionViaFacade(t *testing.T) {
	oct := launch(t)
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	topic, err := oct.CreateTopic(user, "grouped", TopicOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := topic.Producer()
	for i := 0; i < 40; i++ {
		_ = p.SendJSON("", map[string]any{"i": i})
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	c1 := topic.Consumer(InGroup("workers"), FromEarliest())
	defer c1.Close()
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 40 && time.Now().Before(deadline) {
		evs, err := c1.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		got += len(evs)
	}
	if got != 40 {
		t.Fatalf("group consumed %d", got)
	}
}

func TestFromTimeConsumer(t *testing.T) {
	oct := launch(t)
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	topic, _ := oct.CreateTopic(user, "timed", TopicOptions{Partitions: 1})
	p := topic.Producer()
	defer p.Close()
	_ = p.SendJSON("", map[string]any{"phase": "old"})
	_ = p.Flush()
	time.Sleep(2 * time.Millisecond)
	cut := time.Now()
	time.Sleep(2 * time.Millisecond)
	_ = p.SendJSON("", map[string]any{"phase": "new"})
	_ = p.Flush()
	c := topic.Consumer(FromTime(cut))
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		evs, err := c.Poll(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) > 0 {
			doc, _ := evs[0].JSON()
			if doc["phase"] != "new" {
				t.Fatalf("saw %v", doc)
			}
			return
		}
	}
	t.Fatal("no events after time seek")
}

func TestCreateKeyViaFacade(t *testing.T) {
	oct := launch(t)
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	k, err := user.CreateKey()
	if err != nil || k.AccessKeyID == "" {
		t.Fatalf("key = %+v, %v", k, err)
	}
}

// serve puts the deployment on the network the one way it is served:
// clusternet, one listener per broker, followers replicating over the
// wire.
func serve(t *testing.T, oct *Octopus, opts clusternet.Options) *clusternet.Cluster {
	t.Helper()
	cl, err := clusternet.Serve(oct.Fabric, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// dialUser connects an authenticated wire client with a fresh key of
// the user's.
func dialUser(t *testing.T, u *User, addr string) *wire.Client {
	t.Helper()
	key, err := u.CreateKey()
	if err != nil {
		t.Fatal(err)
	}
	wc, err := wire.Dial(addr, key.AccessKeyID, key.Secret)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return wc
}

// TestWireListener: a launched deployment served through clusternet
// takes an authenticated wire client holding the user's key, which
// produces acks=all (committed through wire replication) and reads the
// event back.
func TestWireListener(t *testing.T) {
	oct := launch(t)
	cl := serve(t, oct, clusternet.Options{})
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	if _, err := oct.CreateTopic(user, "served", TopicOptions{Partitions: 2, ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	wc := dialUser(t, user, cl.Addr(0))
	if _, err := wc.Produce("", "served", 1, []event.Event{{Value: []byte("x")}}, broker.AcksAll); err != nil {
		t.Fatal(err)
	}
	res, err := wc.Fetch("", "served", 1, 0, 10, 0)
	if err != nil || len(res.Events) != 1 || string(res.Events[0].Value) != "x" {
		t.Fatalf("fetch = %d events, %v", len(res.Events), err)
	}
}

// TestRemoteTransportSlowerThanLocal: a remote client, whose wire
// connection crosses the paper's 46.5 ms WAN round trip (§V-A, emulated
// by testbed.DelayProxy in front of every broker), pays that round
// trip per request; the in-process transport does not.
func TestRemoteTransportSlowerThanLocal(t *testing.T) {
	oct := launch(t)
	cl := serve(t, oct, clusternet.Options{
		Advertise: func(_ int, bound string) (string, error) {
			addr, stop, err := testbed.DelayProxy(bound, 46500*time.Microsecond/2)
			if err == nil {
				t.Cleanup(stop)
			}
			return addr, err
		},
	})
	user, _ := oct.Register("alice@uchicago.edu", "globus")
	topic, _ := oct.CreateTopic(user, "lat", TopicOptions{Partitions: 1})
	remote := dialUser(t, user, cl.Addr(0))
	start := time.Now()
	if _, err := remote.EndOffset("lat", 0); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 40*time.Millisecond {
		t.Fatalf("remote RTT not applied: %v", rtt)
	}
	start = time.Now()
	if _, err := topic.Transport().EndOffset("lat", 0); err != nil {
		t.Fatal(err)
	}
	if local := time.Since(start); local > rtt/2 {
		t.Fatalf("local (%v) not faster than remote (%v)", local, rtt)
	}
}
