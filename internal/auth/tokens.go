// Package auth implements the Octopus security model of §IV-C: an
// OAuth 2.0-style token service standing in for Globus Auth (identities
// from many providers, scoped access tokens, refresh tokens, and the
// delegation model via dependent tokens), plus IAM-style key/secret
// credentials for the event fabric, and the per-topic ACLs (ACLStore)
// that decide which identities may read, write or describe each topic.
package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Errors returned by the token service.
var (
	// ErrInvalidToken reports an unknown, revoked, or malformed token.
	ErrInvalidToken = errors.New("auth: invalid token")
	// ErrExpiredToken reports a token past its lifetime.
	ErrExpiredToken = errors.New("auth: token expired")
	// ErrScope reports a token lacking a required scope.
	ErrScope = errors.New("auth: insufficient scope")
	// ErrUnknownIdentity reports an operation for an unregistered user.
	ErrUnknownIdentity = errors.New("auth: unknown identity")
	// ErrBadCredentials reports an IAM key/secret mismatch.
	ErrBadCredentials = errors.New("auth: bad credentials")
)

// Scopes understood by the Octopus web service.
const (
	// ScopeTopics allows topic provisioning and configuration.
	ScopeTopics = "octopus:topics"
	// ScopeTriggers allows trigger management.
	ScopeTriggers = "octopus:triggers"
	// ScopeProduce allows publishing events.
	ScopeProduce = "octopus:produce"
	// ScopeConsume allows consuming events.
	ScopeConsume = "octopus:consume"
)

// AllScopes lists every scope, granted by default on login.
func AllScopes() []string {
	return []string{ScopeTopics, ScopeTriggers, ScopeProduce, ScopeConsume}
}

// Identity is a principal known to the identity provider: a user, a
// service, or a trigger acting on a user's behalf.
type Identity struct {
	// ID is the stable unique identifier (like a Globus Auth UUID).
	ID string
	// Username is the human-readable name, e.g. "researcher@uchicago.edu".
	Username string
	// Provider names the identity provider that vouched for the user.
	Provider string
}

// Token is an issued OAuth-style access token.
type Token struct {
	// Value is the opaque bearer string presented on API calls.
	Value string
	// RefreshValue renews the token after expiry.
	RefreshValue string
	// Identity is the authenticated principal.
	Identity Identity
	// Scopes are the authorized scopes.
	Scopes []string
	// IssuedAt and ExpiresAt bound the token lifetime.
	IssuedAt  time.Time
	ExpiresAt time.Time
	// OnBehalfOf is non-empty for dependent (delegated) tokens: the
	// identity that authorized the delegation.
	OnBehalfOf string
}

// HasScope reports whether the token carries the scope.
func (t *Token) HasScope(scope string) bool {
	for _, s := range t.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// Key is an IAM-style access key/secret pair mapped to an identity,
// returned by the OWS create_key route and presented by Kafka clients.
type Key struct {
	AccessKeyID string
	Secret      string
	Identity    string // identity ID
	CreatedAt   time.Time
}

// Service is the combined identity provider + IAM credential issuer.
type Service struct {
	mu         sync.Mutex
	clock      vclock.Clock
	lifetime   time.Duration
	identities map[string]Identity // by ID
	byName     map[string]string   // username -> ID
	tokens     map[string]*Token   // by access token value
	refresh    map[string]*Token   // by refresh token value
	keys       map[string]Key      // by access key id
	keyByIdent map[string]string   // identity -> access key id
	revoked    map[string]bool
}

// NewService creates a token service with the given token lifetime
// (48 h if zero, mirroring Globus Auth defaults).
func NewService(clock vclock.Clock, lifetime time.Duration) *Service {
	if clock == nil {
		clock = vclock.Real{}
	}
	if lifetime <= 0 {
		lifetime = 48 * time.Hour
	}
	return &Service{
		clock:      clock,
		lifetime:   lifetime,
		identities: make(map[string]Identity),
		byName:     make(map[string]string),
		tokens:     make(map[string]*Token),
		refresh:    make(map[string]*Token),
		keys:       make(map[string]Key),
		keyByIdent: make(map[string]string),
		revoked:    make(map[string]bool),
	}
}

// RegisterIdentity records a principal from an identity provider and
// returns its Identity. Registering the same username twice returns the
// existing identity (idempotent, per §IV-F).
func (s *Service) RegisterIdentity(username, provider string) Identity {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byName[username]; ok {
		return s.identities[id]
	}
	ident := Identity{ID: randomID("id"), Username: username, Provider: provider}
	s.identities[ident.ID] = ident
	s.byName[username] = ident.ID
	return ident
}

// Identity looks up a principal by ID.
func (s *Service) Identity(id string) (Identity, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ident, ok := s.identities[id]
	if !ok {
		return Identity{}, ErrUnknownIdentity
	}
	return ident, nil
}

// Login performs the authentication flow for a registered username and
// returns a bearer token with the requested scopes (all scopes if none
// given).
func (s *Service) Login(username string, scopes ...string) (*Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byName[username]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, username)
	}
	if len(scopes) == 0 {
		scopes = AllScopes()
	}
	return s.issueLocked(s.identities[id], scopes, ""), nil
}

// Delegate issues a dependent token: a token that lets the holder (for
// example a trigger's function runtime) act with the given scopes on
// behalf of the identity that owns parent. This is the Globus Auth
// delegation model the paper highlights (§IV-C item 3).
func (s *Service) Delegate(parent string, scopes ...string) (*Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tok, err := s.validateLocked(parent)
	if err != nil {
		return nil, err
	}
	for _, sc := range scopes {
		if !tok.HasScope(sc) {
			return nil, fmt.Errorf("%w: delegating %s", ErrScope, sc)
		}
	}
	if len(scopes) == 0 {
		scopes = tok.Scopes
	}
	return s.issueLocked(tok.Identity, scopes, tok.Identity.ID), nil
}

func (s *Service) issueLocked(ident Identity, scopes []string, onBehalfOf string) *Token {
	now := s.clock.Now()
	tok := &Token{
		Value:        randomID("tok"),
		RefreshValue: randomID("ref"),
		Identity:     ident,
		Scopes:       append([]string(nil), scopes...),
		IssuedAt:     now,
		ExpiresAt:    now.Add(s.lifetime),
		OnBehalfOf:   onBehalfOf,
	}
	s.tokens[tok.Value] = tok
	s.refresh[tok.RefreshValue] = tok
	return tok
}

// Validate checks a bearer token and returns it if live.
func (s *Service) Validate(value string) (*Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateLocked(value)
}

func (s *Service) validateLocked(value string) (*Token, error) {
	tok, ok := s.tokens[value]
	if !ok || s.revoked[value] {
		return nil, ErrInvalidToken
	}
	if s.clock.Now().After(tok.ExpiresAt) {
		return nil, ErrExpiredToken
	}
	return tok, nil
}

// Require validates the token and checks it carries the scope.
func (s *Service) Require(value, scope string) (*Token, error) {
	tok, err := s.Validate(value)
	if err != nil {
		return nil, err
	}
	if !tok.HasScope(scope) {
		return nil, fmt.Errorf("%w: need %s", ErrScope, scope)
	}
	return tok, nil
}

// Refresh exchanges a refresh token for a new access token, the SDK's
// automatic token renewal path (§IV-E).
func (s *Service) Refresh(refreshValue string) (*Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.refresh[refreshValue]
	if !ok {
		return nil, ErrInvalidToken
	}
	delete(s.refresh, refreshValue)
	delete(s.tokens, old.Value)
	return s.issueLocked(old.Identity, old.Scopes, old.OnBehalfOf), nil
}

// Revoke invalidates an access token.
func (s *Service) Revoke(value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revoked[value] = true
}

// CreateKey returns IAM-style credentials for the identity, creating them
// on first call and returning the same key thereafter (idempotent). This
// is the GET create_key route's backend.
func (s *Service) CreateKey(identityID string) (Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.identities[identityID]; !ok {
		return Key{}, ErrUnknownIdentity
	}
	if kid, ok := s.keyByIdent[identityID]; ok {
		return s.keys[kid], nil
	}
	k := Key{
		AccessKeyID: randomID("AKIA"),
		Secret:      randomID("sec"),
		Identity:    identityID,
		CreatedAt:   s.clock.Now(),
	}
	s.keys[k.AccessKeyID] = k
	s.keyByIdent[identityID] = k.AccessKeyID
	return k, nil
}

// RotateKey replaces the identity's key with a fresh one; the old key
// stops validating immediately.
func (s *Service) RotateKey(identityID string) (Key, error) {
	s.mu.Lock()
	if kid, ok := s.keyByIdent[identityID]; ok {
		delete(s.keys, kid)
		delete(s.keyByIdent, identityID)
	}
	s.mu.Unlock()
	return s.CreateKey(identityID)
}

// Authenticate validates an access key/secret pair and returns the
// identity it maps to — the broker-side SASL check.
func (s *Service) Authenticate(accessKeyID, secret string) (Identity, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.keys[accessKeyID]
	if !ok || subtleNeq(k.Secret, secret) {
		return Identity{}, ErrBadCredentials
	}
	return s.identities[k.Identity], nil
}

// subtleNeq compares secrets via hashes to keep timing uniform.
func subtleNeq(a, b string) bool {
	ha := sha256.Sum256([]byte(a))
	hb := sha256.Sum256([]byte(b))
	return ha != hb
}

func randomID(prefix string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("auth: crypto/rand unavailable: " + err.Error())
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}
