package auth

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func TestRegisterIdentityIdempotent(t *testing.T) {
	s := NewService(nil, 0)
	a := s.RegisterIdentity("alice@uchicago.edu", "globus")
	b := s.RegisterIdentity("alice@uchicago.edu", "globus")
	if a.ID != b.ID {
		t.Fatalf("re-registration produced a new identity: %s vs %s", a.ID, b.ID)
	}
	got, err := s.Identity(a.ID)
	if err != nil || got.Username != "alice@uchicago.edu" {
		t.Fatalf("lookup: %+v, %v", got, err)
	}
}

func TestLoginIssuesScopedToken(t *testing.T) {
	s := NewService(nil, 0)
	s.RegisterIdentity("bob@anl.gov", "globus")
	tok, err := s.Login("bob@anl.gov", ScopeProduce)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.HasScope(ScopeProduce) || tok.HasScope(ScopeTopics) {
		t.Fatalf("scopes = %v", tok.Scopes)
	}
	back, err := s.Validate(tok.Value)
	if err != nil || back.Identity.Username != "bob@anl.gov" {
		t.Fatalf("validate: %+v, %v", back, err)
	}
}

func TestLoginUnknownUser(t *testing.T) {
	s := NewService(nil, 0)
	if _, err := s.Login("ghost@nowhere"); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoginDefaultScopesAreAll(t *testing.T) {
	s := NewService(nil, 0)
	s.RegisterIdentity("u", "p")
	tok, err := s.Login("u")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tok.Scopes, AllScopes()) {
		t.Fatalf("scopes = %v", tok.Scopes)
	}
}

func TestTokenExpiry(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, time.Hour)
	s.RegisterIdentity("u", "p")
	tok, err := s.Login("u")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if _, err := s.Validate(tok.Value); !errors.Is(err, ErrExpiredToken) {
		t.Fatalf("err = %v, want expired", err)
	}
	// Refresh mints a live token.
	fresh, err := s.Refresh(tok.RefreshValue)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(fresh.Value); err != nil {
		t.Fatalf("refreshed token invalid: %v", err)
	}
	// The old refresh token is single-use.
	if _, err := s.Refresh(tok.RefreshValue); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("refresh reuse: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	s := NewService(nil, 0)
	s.RegisterIdentity("u", "p")
	tok, _ := s.Login("u")
	s.Revoke(tok.Value)
	if _, err := s.Validate(tok.Value); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("err = %v", err)
	}
}

func TestRequireScope(t *testing.T) {
	s := NewService(nil, 0)
	s.RegisterIdentity("u", "p")
	tok, _ := s.Login("u", ScopeConsume)
	if _, err := s.Require(tok.Value, ScopeConsume); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Require(tok.Value, ScopeTriggers); !errors.Is(err, ErrScope) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelegation(t *testing.T) {
	s := NewService(nil, 0)
	ident := s.RegisterIdentity("pi@lab.edu", "globus")
	parent, _ := s.Login("pi@lab.edu", ScopeProduce, ScopeTriggers)
	dep, err := s.Delegate(parent.Value, ScopeProduce)
	if err != nil {
		t.Fatal(err)
	}
	if dep.OnBehalfOf != ident.ID {
		t.Fatalf("OnBehalfOf = %q, want %q", dep.OnBehalfOf, ident.ID)
	}
	if dep.HasScope(ScopeTriggers) {
		t.Fatal("dependent token gained un-requested scope")
	}
	// Delegation cannot escalate beyond the parent's scopes.
	if _, err := s.Delegate(parent.Value, ScopeTopics); !errors.Is(err, ErrScope) {
		t.Fatalf("escalation: %v", err)
	}
}

func TestCreateKeyIdempotentAndAuthenticates(t *testing.T) {
	s := NewService(nil, 0)
	ident := s.RegisterIdentity("u", "p")
	k1, err := s.CreateKey(ident.ID)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := s.CreateKey(ident.ID)
	if k1.AccessKeyID != k2.AccessKeyID {
		t.Fatal("create_key is not idempotent")
	}
	got, err := s.Authenticate(k1.AccessKeyID, k1.Secret)
	if err != nil || got.ID != ident.ID {
		t.Fatalf("authenticate: %+v, %v", got, err)
	}
	if _, err := s.Authenticate(k1.AccessKeyID, "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("bad secret: %v", err)
	}
	if _, err := s.CreateKey("nobody"); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("unknown identity: %v", err)
	}
}

func TestRotateKeyInvalidatesOld(t *testing.T) {
	s := NewService(nil, 0)
	ident := s.RegisterIdentity("u", "p")
	old, _ := s.CreateKey(ident.ID)
	fresh, err := s.RotateKey(ident.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.AccessKeyID == old.AccessKeyID {
		t.Fatal("rotation returned the same key")
	}
	if _, err := s.Authenticate(old.AccessKeyID, old.Secret); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("old key still valid: %v", err)
	}
	if _, err := s.Authenticate(fresh.AccessKeyID, fresh.Secret); err != nil {
		t.Fatalf("new key invalid: %v", err)
	}
}

func TestACLGrantCheckRevoke(t *testing.T) {
	a := NewACLStore()
	a.Grant("topic1", "alice", PermRead, PermDescribe)
	if err := a.Check("topic1", "alice", PermRead); err != nil {
		t.Fatal(err)
	}
	if err := a.Check("topic1", "alice", PermWrite); !errors.Is(err, ErrDenied) {
		t.Fatalf("write: %v", err)
	}
	if err := a.Check("topic1", "bob", PermRead); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob: %v", err)
	}
	a.Revoke("topic1", "alice", PermRead)
	if a.Allowed("topic1", "alice", PermRead) {
		t.Fatal("read survived revoke")
	}
	if !a.Allowed("topic1", "alice", PermDescribe) {
		t.Fatal("describe lost on partial revoke")
	}
}

func TestACLGrantDefaultsToAll(t *testing.T) {
	a := NewACLStore()
	a.Grant("t", "u")
	for _, p := range AllPermissions() {
		if !a.Allowed("t", "u", p) {
			t.Fatalf("missing %s", p)
		}
	}
}

func TestACLRevokeAllDeletesEntry(t *testing.T) {
	a := NewACLStore()
	a.Grant("t", "u")
	a.Revoke("t", "u")
	if got := a.Permissions("t", "u"); got != nil {
		t.Fatalf("perms = %v", got)
	}
	// Revoking a non-existent grant is a no-op and leaves no entry.
	a.Revoke("t", "nobody", PermRead)
	if got := a.IdentitiesFor("t"); got != nil {
		t.Fatalf("identities = %v", got)
	}
}

func TestACLTopicsFor(t *testing.T) {
	a := NewACLStore()
	for _, topic := range []string{"zeta", "alpha", "mid"} {
		a.Grant(topic, "u")
	}
	a.Grant("hidden", "u", PermWrite) // no DESCRIBE
	got := a.TopicsFor("u")
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("topics = %v, want %v", got, want)
	}
}

func TestACLIdentitiesFor(t *testing.T) {
	a := NewACLStore()
	a.Grant("t", "bob")
	a.Grant("t", "alice")
	got := a.IdentitiesFor("t")
	if !reflect.DeepEqual(got, []string{"alice", "bob"}) {
		t.Fatalf("identities = %v", got)
	}
}

func TestACLRevokeAllForTopic(t *testing.T) {
	a := NewACLStore()
	a.Grant("t", "a")
	a.Grant("t", "b")
	a.RevokeAllForTopic("t")
	if len(a.IdentitiesFor("t")) != 0 {
		t.Fatal("grants survived topic release")
	}
}

// TestACLConcurrentGrantCheck runs grants and revokes against
// concurrent checks and listings, for the race detector: the store is
// shared by every produce and fetch and by the web service.
func TestACLConcurrentGrantCheck(t *testing.T) {
	a := NewACLStore()
	a.Grant("t", "owner")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := a.Check("t", "owner", PermWrite); err != nil {
					t.Error(err)
					return
				}
				_ = a.Allowed("t", "guest", PermRead)
				_ = a.Permissions("t", "guest")
				_ = a.TopicsFor("guest")
				_ = a.IdentitiesFor("t")
			}
		}()
	}
	for i := 0; i < 500; i++ {
		a.Grant("t", "guest", PermRead, PermDescribe)
		a.Grant(fmt.Sprintf("t%d", i%7), "guest")
		a.Revoke("t", "guest", PermRead)
		a.Revoke("t", "guest")
	}
	close(stop)
	wg.Wait()
	if got := a.IdentitiesFor("t"); !reflect.DeepEqual(got, []string{"owner"}) {
		t.Fatalf("identities = %v", got)
	}
}
