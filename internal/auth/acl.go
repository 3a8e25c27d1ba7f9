package auth

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Permission is a topic-level right, following the Kafka/MSK ACL model
// the paper relies on: READ, WRITE and DESCRIBE per topic per identity.
type Permission string

// Topic permissions.
const (
	PermRead     Permission = "READ"
	PermWrite    Permission = "WRITE"
	PermDescribe Permission = "DESCRIBE"
)

// AllPermissions returns the full grant given to a topic's creator.
func AllPermissions() []Permission {
	return []Permission{PermRead, PermWrite, PermDescribe}
}

// ErrDenied reports a failed authorization check.
var ErrDenied = errors.New("auth: permission denied")

// ACLStore enforces fine-grained, self-managed topic access control
// (requirement "Fine-grained access control" of §III-B). It is the
// source of truth for which identities hold which rights on which
// topics (§IV-C). Every authorized produce and fetch runs Check, so a
// granted check takes a read lock and allocates nothing.
type ACLStore struct {
	mu sync.RWMutex
	// grants maps topic -> identity -> the sorted permissions held. An
	// identity with no permissions left has no entry.
	grants map[string]map[string][]Permission
}

// NewACLStore creates an empty ACL store.
func NewACLStore() *ACLStore {
	return &ACLStore{grants: make(map[string]map[string][]Permission)}
}

// Grant adds permissions for identity on topic (idempotent union). No
// permissions means all of them.
func (a *ACLStore) Grant(topic, identity string, perms ...Permission) {
	if len(perms) == 0 {
		perms = AllPermissions()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := a.grants[topic]
	if ids == nil {
		ids = make(map[string][]Permission)
		a.grants[topic] = ids
	}
	held := ids[identity]
	for _, p := range perms {
		if !slices.Contains(held, p) {
			held = append(held, p)
		}
	}
	slices.Sort(held)
	ids[identity] = held
}

// Revoke removes permissions for identity on topic; no permissions
// means all of them. Revoking everything deletes the entry.
func (a *ACLStore) Revoke(topic, identity string, perms ...Permission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := a.grants[topic]
	var held []Permission
	if len(perms) > 0 {
		held = slices.DeleteFunc(ids[identity], func(p Permission) bool { return slices.Contains(perms, p) })
	}
	if len(held) > 0 {
		ids[identity] = held
		return
	}
	delete(ids, identity)
	if len(ids) == 0 {
		delete(a.grants, topic)
	}
}

// RevokeAllForTopic removes every grant on the topic (topic release).
func (a *ACLStore) RevokeAllForTopic(topic string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.grants, topic)
}

// Check returns nil if identity holds perm on topic.
func (a *ACLStore) Check(topic, identity string, perm Permission) error {
	a.mu.RLock()
	ok := slices.Contains(a.grants[topic][identity], perm)
	a.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s on %s for %s", ErrDenied, perm, topic, identity)
	}
	return nil
}

// Allowed reports whether identity holds perm on topic.
func (a *ACLStore) Allowed(topic, identity string, perm Permission) bool {
	return a.Check(topic, identity, perm) == nil
}

// Permissions returns the sorted permissions identity holds on topic.
func (a *ACLStore) Permissions(topic, identity string) []Permission {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return slices.Clone(a.grants[topic][identity])
}

// TopicsFor returns the sorted topics on which the identity holds
// DESCRIBE, backing the GET /topics route.
func (a *ACLStore) TopicsFor(identity string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var topics []string
	for topic, ids := range a.grants {
		if slices.Contains(ids[identity], PermDescribe) {
			topics = append(topics, topic)
		}
	}
	slices.Sort(topics)
	return topics
}

// IdentitiesFor returns the sorted identities holding any grant on topic.
func (a *ACLStore) IdentitiesFor(topic string) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return slices.Sorted(maps.Keys(a.grants[topic]))
}
