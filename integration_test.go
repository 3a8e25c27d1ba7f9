package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/mirror"
	"repro/internal/netsim"
	"repro/internal/ows"
	"repro/internal/store"
	"repro/internal/trigger"
	"repro/internal/wire"
)

// TestFullStackScenario drives the complete system the way a paper user
// would: REST provisioning with OAuth tokens, key issuance, remote
// (WAN-profiled) production over the TCP wire protocol, pattern-filtered
// triggers chaining into a derived topic, group consumption, geo
// mirroring to a second fabric, and archival to durable storage.
func TestFullStackScenario(t *testing.T) {
	// --- Region A: full deployment ---
	oct, err := core.Launch(core.Config{Brokers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer oct.Shutdown()
	web := httptest.NewServer(oct.Web)
	defer web.Close()
	wireAddr, err := oct.ListenWire("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// 1. Authenticate and provision over REST.
	alice, err := oct.Register("alice@uchicago.edu", "globus")
	if err != nil {
		t.Fatal(err)
	}
	code, body := restCall(t, web.URL, "PUT", "/topic/instrument", alice.Token.Value,
		ows.TopicConfigRequest{Partitions: 4, ReplicationFactor: 2})
	if code != http.StatusOK {
		t.Fatalf("provision: %d %v", code, body)
	}
	code, body = restCall(t, web.URL, "GET", "/create_key", alice.Token.Value, nil)
	if code != http.StatusOK {
		t.Fatalf("create_key: %d %v", code, body)
	}
	keyID := body["access_key_id"].(string)
	secret := body["secret_access_key"].(string)

	// 2. Deploy a trigger through OWS: chain created-events to a
	// derived topic (the multi-stage automation of §I).
	if _, err := oct.CreateTopic(alice, "instrument-derived", core.TopicOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	oct.Triggers.RegisterAction("chain-derived", trigger.Chain(oct.Fabric, "instrument-derived"))
	code, body = restCall(t, web.URL, "PUT", "/trigger", alice.Token.Value, ows.TriggerRequest{
		ID: "derive", Topic: "instrument", Action: "chain-derived",
		Pattern: `{"value": {"event_type": ["created"]}}`,
	})
	if code != http.StatusOK {
		t.Fatalf("trigger deploy: %d %v", code, body)
	}

	// 3. A remote producer: authenticated wire connection wrapped in
	// the 46.5 ms Chameleon profile, driving the SDK producer.
	wc, err := wire.Dial(wireAddr, keyID, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	remote := netsim.New(wc, netsim.Remote(), nil)
	prod := client.NewProducer(remote, "instrument", client.ProducerConfig{BatchEvents: 32})
	const created, modified = 12, 24
	start := time.Now()
	for i := 0; i < created; i++ {
		mustSend(t, prod, map[string]any{"value": map[string]any{"event_type": "created", "path": fmt.Sprintf("/d/%d", i)}})
	}
	for i := 0; i < modified; i++ {
		mustSend(t, prod, map[string]any{"value": map[string]any{"event_type": "modified", "path": fmt.Sprintf("/d/%d", i%created)}})
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := prod.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 46*time.Millisecond {
		t.Fatalf("remote WAN profile not applied: %v", elapsed)
	}

	// 4. The trigger chained exactly the created events.
	waitForCount(t, func() int64 {
		var n int64
		for p := 0; p < 2; p++ {
			end, _ := oct.Fabric.EndOffset("instrument-derived", p)
			n += end
		}
		return n
	}, created, "chained events")

	// 5. Group consumers split the derived topic and see every event.
	tr := client.NewDirect(oct.Fabric)
	var mu sync.Mutex
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := client.NewConsumer(tr, client.ConsumerConfig{
				Group: "analysts", MemberID: fmt.Sprintf("analyst-%d", id),
				Start: client.StartEarliest, AutoCommit: true,
			})
			defer c.Close()
			if err := c.Subscribe("instrument-derived"); err != nil {
				t.Error(err)
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				evs, err := c.Poll(50)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, ev := range evs {
					doc, _ := ev.JSON()
					seen[doc["value"].(map[string]any)["path"].(string)] = true
				}
				done := len(seen) == created
				mu.Unlock()
				if done {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if len(seen) != created {
		t.Fatalf("analysts saw %d of %d derived events", len(seen), created)
	}

	// 6. Geo-replication: mirror the raw topic to region B.
	regionB := broker.NewFabric(nil)
	if err := regionB.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	m, err := mirror.New(tr, client.NewDirect(regionB), regionB,
		mirror.Config{Topic: "instrument", Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	waitForCount(t, m.Copied, created+modified, "mirrored events")
	m.Stop()

	// 7. Archive region A and restore into a disaster-recovery fabric.
	arch, err := store.NewArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := arch.ArchiveTopic(oct.Fabric, "instrument")
	if err != nil || n != created+modified {
		t.Fatalf("archived %d, %v", n, err)
	}
	dr := broker.NewFabric(nil)
	if err := dr.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	restored, err := arch.RestoreTopic(dr, "instrument", cluster.TopicConfig{Partitions: 4})
	if err != nil || restored != created+modified {
		t.Fatalf("restored %d, %v", restored, err)
	}

	// 8. Broker failure mid-flight: kill a leader, produce again, and
	// verify zero loss through failover.
	pm, _ := oct.Fabric.Ctl.Partition("instrument", 0)
	if err := oct.Fabric.StopBroker(pm.Leader); err != nil {
		t.Fatal(err)
	}
	post := client.NewProducer(tr, "instrument", client.ProducerConfig{Retries: 5})
	if _, err := post.SendSync(event.New("", map[string]any{"value": map[string]any{"event_type": "created", "path": "/after-failover"}})); err != nil {
		t.Fatalf("produce after leader kill: %v", err)
	}
	_ = post.Close()
	waitForCount(t, func() int64 {
		var n int64
		for p := 0; p < 2; p++ {
			end, _ := oct.Fabric.EndOffset("instrument-derived", p)
			n += end
		}
		return n
	}, created+1, "trigger kept firing through failover")
}

func restCall(t *testing.T, base, method, path, token string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func mustSend(t *testing.T, p *client.Producer, doc map[string]any) {
	t.Helper()
	if err := p.SendJSON("", doc); err != nil {
		t.Fatal(err)
	}
}

func waitForCount(t *testing.T, get func() int64, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= int64(want) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s: have %d, want %d", what, get(), want)
}
