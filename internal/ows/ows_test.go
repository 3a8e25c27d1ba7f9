package ows

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/trigger"
)

type fixture struct {
	fabric *broker.Fabric
	rt     *trigger.Runtime
	srv    *httptest.Server
	token  string
	ident  string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	rt := trigger.NewRuntime(f)
	rt.RegisterAction("noop", func(*trigger.Invocation) error { return nil })
	srv := httptest.NewServer(NewServer(f, rt))
	t.Cleanup(srv.Close)
	t.Cleanup(rt.StopAll)
	ident := f.Auth.RegisterIdentity("alice@uchicago.edu", "globus")
	tok, err := f.Auth.Login("alice@uchicago.edu")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{fabric: f, rt: rt, srv: srv, token: tok.Value, ident: ident.ID}
}

// call performs an authenticated request and decodes the JSON response.
func (fx *fixture) call(t *testing.T, method, path string, body any, token string) (int, map[string]any) {
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
	req, err := http.NewRequest(method, fx.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestMissingTokenRejected(t *testing.T) {
	fx := newFixture(t)
	code, _ := fx.call(t, "GET", "/topics", nil, "")
	if code != http.StatusUnauthorized {
		t.Fatalf("code = %d", code)
	}
	code, _ = fx.call(t, "GET", "/topics", nil, "tok-garbage")
	if code != http.StatusUnauthorized {
		t.Fatalf("garbage token code = %d", code)
	}
}

func TestTopicLifecycle(t *testing.T) {
	fx := newFixture(t)
	// PUT /topic/<topic> registers and grants RWD.
	code, body := fx.call(t, "PUT", "/topic/instrument", TopicConfigRequest{Partitions: 4}, fx.token)
	if code != http.StatusOK {
		t.Fatalf("create: %d %v", code, body)
	}
	if body["partitions"].(float64) != 4 {
		t.Fatalf("partitions = %v", body["partitions"])
	}
	perms := body["permissions"].([]any)
	if len(perms) != 3 {
		t.Fatalf("creator permissions = %v", perms)
	}
	// Idempotent retry.
	code, _ = fx.call(t, "PUT", "/topic/instrument", TopicConfigRequest{Partitions: 4}, fx.token)
	if code != http.StatusOK {
		t.Fatalf("retry: %d", code)
	}
	// GET /topics lists it.
	code, body = fx.call(t, "GET", "/topics", nil, fx.token)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	topics := body["topics"].([]any)
	if len(topics) != 1 || topics[0] != "instrument" {
		t.Fatalf("topics = %v", topics)
	}
	// GET /topic/<topic> describes it.
	code, body = fx.call(t, "GET", "/topic/instrument", nil, fx.token)
	if code != http.StatusOK || body["name"] != "instrument" {
		t.Fatalf("describe: %d %v", code, body)
	}
	// POST /topic/<topic> updates retention.
	code, body = fx.call(t, "POST", "/topic/instrument", TopicConfigRequest{RetentionHours: 48}, fx.token)
	if code != http.StatusOK || body["retention_hours"].(float64) != 48 {
		t.Fatalf("config: %d %v", code, body)
	}
	// POST /topic/<topic>/partitions grows partitions.
	code, body = fx.call(t, "POST", "/topic/instrument/partitions", PartitionsRequest{Partitions: 8}, fx.token)
	if code != http.StatusOK || body["partitions"].(float64) != 8 {
		t.Fatalf("partitions: %d %v", code, body)
	}
	// Shrinking fails with 400.
	code, _ = fx.call(t, "POST", "/topic/instrument/partitions", PartitionsRequest{Partitions: 2}, fx.token)
	if code != http.StatusBadRequest {
		t.Fatalf("shrink: %d", code)
	}
	// DELETE removes it.
	code, _ = fx.call(t, "DELETE", "/topic/instrument", nil, fx.token)
	if code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	code, _ = fx.call(t, "GET", "/topic/instrument", nil, fx.token)
	if code != http.StatusForbidden && code != http.StatusNotFound {
		t.Fatalf("after delete: %d", code)
	}
}

func TestTopicOwnershipEnforced(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/mine", nil, fx.token)
	// A second user cannot reconfigure or see the topic.
	fx.fabric.Auth.RegisterIdentity("bob@anl.gov", "globus")
	btok, _ := fx.fabric.Auth.Login("bob@anl.gov")
	code, _ := fx.call(t, "GET", "/topic/mine", nil, btok.Value)
	if code != http.StatusForbidden {
		t.Fatalf("foreign describe: %d", code)
	}
	code, _ = fx.call(t, "POST", "/topic/mine", TopicConfigRequest{RetentionHours: 1}, btok.Value)
	if code != http.StatusForbidden {
		t.Fatalf("foreign config: %d", code)
	}
	// Creating a topic that exists under another owner conflicts.
	code, _ = fx.call(t, "PUT", "/topic/mine", nil, btok.Value)
	if code != http.StatusConflict {
		t.Fatalf("foreign create: %d", code)
	}
}

func TestUserGrantAndRevoke(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/shared", nil, fx.token)
	bob := fx.fabric.Auth.RegisterIdentity("bob@anl.gov", "globus")
	btok, _ := fx.fabric.Auth.Login("bob@anl.gov")
	// Grant bob READ+DESCRIBE.
	code, body := fx.call(t, "POST", "/topic/shared/user",
		UserGrantRequest{Identity: bob.ID, Permissions: []string{"READ", "DESCRIBE"}}, fx.token)
	if code != http.StatusOK {
		t.Fatalf("grant: %d %v", code, body)
	}
	// Bob can now describe.
	code, _ = fx.call(t, "GET", "/topic/shared", nil, btok.Value)
	if code != http.StatusOK {
		t.Fatalf("bob describe after grant: %d", code)
	}
	// And consume, but not produce.
	if !fx.fabric.ACL.Allowed("shared", bob.ID, "READ") {
		t.Fatal("READ not granted")
	}
	if fx.fabric.ACL.Allowed("shared", bob.ID, "WRITE") {
		t.Fatal("WRITE over-granted")
	}
	// Revoke.
	code, _ = fx.call(t, "POST", "/topic/shared/user",
		UserGrantRequest{Identity: bob.ID, Revoke: true}, fx.token)
	if code != http.StatusOK {
		t.Fatalf("revoke: %d", code)
	}
	if fx.fabric.ACL.Allowed("shared", bob.ID, "READ") {
		t.Fatal("grant survived revoke")
	}
}

func TestCreateKeyRoute(t *testing.T) {
	fx := newFixture(t)
	code, body := fx.call(t, "GET", "/create_key", nil, fx.token)
	if code != http.StatusOK {
		t.Fatalf("create_key: %d %v", code, body)
	}
	keyID := body["access_key_id"].(string)
	secret := body["secret_access_key"].(string)
	if keyID == "" || secret == "" {
		t.Fatalf("empty credentials: %v", body)
	}
	// Idempotent: same key on repeat.
	_, body2 := fx.call(t, "GET", "/create_key", nil, fx.token)
	if body2["access_key_id"] != keyID {
		t.Fatal("create_key not idempotent")
	}
	// The key authenticates to the fabric as the same identity.
	ident, err := fx.fabric.Auth.Authenticate(keyID, secret)
	if err != nil || ident.ID != fx.ident {
		t.Fatalf("authenticate: %+v, %v", ident, err)
	}
}

func TestTriggerRoutes(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/fs", nil, fx.token)
	// Deploy (Listing 1 pattern).
	code, body := fx.call(t, "PUT", "/trigger", TriggerRequest{
		ID: "transfer", Topic: "fs", Action: "noop",
		Pattern:   `{"value": {"event_type": ["created"]}}`,
		BatchSize: 50,
	}, fx.token)
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	if body["batch_size"].(float64) != 50 {
		t.Fatalf("batch = %v", body["batch_size"])
	}
	// Duplicate deploy conflicts.
	code, _ = fx.call(t, "PUT", "/trigger", TriggerRequest{ID: "transfer", Topic: "fs", Action: "noop"}, fx.token)
	if code != http.StatusConflict {
		t.Fatalf("dup deploy: %d", code)
	}
	// Unknown action 500s but does not create anything.
	code, _ = fx.call(t, "PUT", "/trigger", TriggerRequest{ID: "x", Topic: "fs", Action: "ghost"}, fx.token)
	if code == http.StatusOK {
		t.Fatal("ghost action accepted")
	}
	// List shows the trigger.
	code, body = fx.call(t, "GET", "/triggers", nil, fx.token)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if n := len(body["triggers"].([]any)); n != 1 {
		t.Fatalf("triggers = %d", n)
	}
	// Update batch size.
	code, body = fx.call(t, "POST", "/trigger/transfer", TriggerRequest{BatchSize: 99}, fx.token)
	if code != http.StatusOK || body["batch_size"].(float64) != 99 {
		t.Fatalf("update: %d %v", code, body)
	}
	// The trigger actually fires on matching events.
	if _, err := fx.fabric.Produce("", "fs", -1, []event.Event{
		event.New("", map[string]any{"value": map[string]any{"event_type": "created"}}),
		event.New("", map[string]any{"value": map[string]any{"event_type": "deleted"}}),
	}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	tr, err := fx.rt.Get("transfer")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := tr.Stats()
		if st.EventsDelivered == 1 && st.EventsFiltered == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := tr.Stats()
	if st.EventsDelivered != 1 || st.EventsFiltered != 1 {
		t.Fatalf("trigger stats = %+v", st)
	}
	// Delete.
	code, _ = fx.call(t, "DELETE", "/trigger/transfer", nil, fx.token)
	if code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	code, _ = fx.call(t, "GET", "/triggers", nil, fx.token)
	if n := len(getList(t, fx, "/triggers", "triggers")); n != 0 {
		t.Fatalf("triggers after delete = %d", n)
	}
	_ = code
}

func getList(t *testing.T, fx *fixture, path, key string) []any {
	t.Helper()
	_, body := fx.call(t, "GET", path, nil, fx.token)
	return body[key].([]any)
}

func TestTriggerRequiresTopicRead(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/private", nil, fx.token)
	fx.fabric.Auth.RegisterIdentity("bob@anl.gov", "globus")
	btok, _ := fx.fabric.Auth.Login("bob@anl.gov")
	code, _ := fx.call(t, "PUT", "/trigger", TriggerRequest{ID: "spy", Topic: "private", Action: "noop"}, btok.Value)
	if code != http.StatusForbidden {
		t.Fatalf("unauthorized trigger deploy: %d", code)
	}
}

func TestTriggerOwnershipEnforced(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/fs", nil, fx.token)
	fx.call(t, "PUT", "/trigger", TriggerRequest{ID: "t1", Topic: "fs", Action: "noop"}, fx.token)
	fx.fabric.Auth.RegisterIdentity("bob@anl.gov", "globus")
	btok, _ := fx.fabric.Auth.Login("bob@anl.gov")
	if code, _ := fx.call(t, "POST", "/trigger/t1", TriggerRequest{BatchSize: 1}, btok.Value); code != http.StatusForbidden {
		t.Fatalf("foreign update: %d", code)
	}
	if code, _ := fx.call(t, "DELETE", "/trigger/t1", nil, btok.Value); code != http.StatusForbidden {
		t.Fatalf("foreign delete: %d", code)
	}
	// Bob's list does not leak alice's trigger.
	_, body := fx.call(t, "GET", "/triggers", nil, btok.Value)
	if n := len(body["triggers"].([]any)); n != 0 {
		t.Fatalf("leaked triggers = %d", n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	fx := newFixture(t)
	fx.fabric.Metrics.Counter("fabric.produced").Add(5)
	resp, err := http.Get(fx.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fabric.produced 5") {
		t.Fatalf("metrics output:\n%s", buf.String())
	}
}

func TestScopeEnforcement(t *testing.T) {
	fx := newFixture(t)
	// A token with only the consume scope cannot manage topics.
	narrow, err := fx.fabric.Auth.Login("alice@uchicago.edu", "octopus:consume")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := fx.call(t, "PUT", "/topic/x", nil, narrow.Value)
	if code != http.StatusForbidden {
		t.Fatalf("scope bypass: %d", code)
	}
}

func TestBadJSONBody(t *testing.T) {
	fx := newFixture(t)
	req, _ := http.NewRequest("PUT", fx.srv.URL+"/topic/x", strings.NewReader("{not json"))
	req.Header.Set("Authorization", "Bearer "+fx.token)
	req.ContentLength = 9
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	_ = cluster.TopicConfig{}
}

func TestStatusEndpoint(t *testing.T) {
	fx := newFixture(t)
	fx.call(t, "PUT", "/topic/health", nil, fx.token)
	resp, err := http.Get(fx.srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Brokers) != 2 {
		t.Fatalf("brokers = %+v", st.Brokers)
	}
	for _, b := range st.Brokers {
		if !b.Live || b.VCPUs != 2 {
			t.Fatalf("broker = %+v", b)
		}
	}
	if len(st.Topics) != 1 || st.Topics[0].Name != "health" {
		t.Fatalf("topics = %+v", st.Topics)
	}
	if st.Topics[0].UnderReplicated != 0 || st.Topics[0].Leaderless != 0 {
		t.Fatalf("healthy topic reported degraded: %+v", st.Topics[0])
	}
	// Kill a broker: status reflects under-replication.
	pm, _ := fx.fabric.Ctl.Partition("health", 0)
	if err := fx.fabric.StopBroker(pm.Leader); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(fx.srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 StatusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if len(st2.Brokers) != 1 {
		t.Fatalf("live brokers after kill = %d", len(st2.Brokers))
	}
	if st2.Topics[0].UnderReplicated == 0 {
		t.Fatalf("under-replication not surfaced: %+v", st2.Topics[0])
	}
}
