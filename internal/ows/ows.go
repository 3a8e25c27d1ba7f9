// Package ows implements the Octopus Web Service (§IV-B): the RESTful
// control plane through which users provision, configure and share
// topics, acquire IAM-style fabric credentials, and manage triggers.
// Requests carry OAuth bearer tokens (internal/auth); operations are
// idempotent so retries cannot leave the system inconsistent (§IV-F).
//
// Routes (verbatim from the paper):
//
//	PUT  /topic/{topic}             register topic, grant creator RWD
//	GET  /topics                    topics the caller may describe
//	GET  /topic/{topic}             topic configuration
//	POST /topic/{topic}             set configuration (retention, ...)
//	POST /topic/{topic}/partitions  set partition count
//	POST /topic/{topic}/user        grant/revoke an identity's access
//	GET  /create_key                create IAM identity + access key
//	PUT  /trigger                   deploy a trigger
//	GET  /triggers                  describe deployed triggers
//	POST /trigger/{trigger_id}      update trigger configuration
//	DELETE /trigger/{trigger_id}    remove a trigger
//	GET  /metrics                   admin console snapshot
package ows

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/trigger"
)

// Server is the web service. It implements http.Handler.
type Server struct {
	Fabric   *broker.Fabric
	Triggers *trigger.Runtime
	mux      *http.ServeMux
}

// NewServer wires the service over a fabric and trigger runtime.
func NewServer(f *broker.Fabric, tr *trigger.Runtime) *Server {
	s := &Server{Fabric: f, Triggers: tr, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /topic/{topic}", s.auth(auth.ScopeTopics, s.createTopic))
	s.mux.HandleFunc("GET /topics", s.auth(auth.ScopeTopics, s.listTopics))
	s.mux.HandleFunc("GET /topic/{topic}", s.auth(auth.ScopeTopics, s.getTopic))
	s.mux.HandleFunc("POST /topic/{topic}", s.auth(auth.ScopeTopics, s.setTopicConfig))
	s.mux.HandleFunc("POST /topic/{topic}/partitions", s.auth(auth.ScopeTopics, s.setPartitions))
	s.mux.HandleFunc("POST /topic/{topic}/user", s.auth(auth.ScopeTopics, s.setTopicUser))
	s.mux.HandleFunc("DELETE /topic/{topic}", s.auth(auth.ScopeTopics, s.deleteTopic))
	s.mux.HandleFunc("GET /create_key", s.auth(auth.ScopeTopics, s.createKey))
	s.mux.HandleFunc("PUT /trigger", s.auth(auth.ScopeTriggers, s.deployTrigger))
	s.mux.HandleFunc("GET /triggers", s.auth(auth.ScopeTriggers, s.listTriggers))
	s.mux.HandleFunc("POST /trigger/{id}", s.auth(auth.ScopeTriggers, s.updateTrigger))
	s.mux.HandleFunc("DELETE /trigger/{id}", s.auth(auth.ScopeTriggers, s.deleteTrigger))
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /status", s.status)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// statusFor maps domain errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, auth.ErrDenied), errors.Is(err, auth.ErrScope):
		return http.StatusForbidden
	case errors.Is(err, auth.ErrInvalidToken), errors.Is(err, auth.ErrExpiredToken), errors.Is(err, auth.ErrBadCredentials):
		return http.StatusUnauthorized
	case errors.Is(err, cluster.ErrNoTopic), errors.Is(err, trigger.ErrNoTrigger):
		return http.StatusNotFound
	case errors.Is(err, cluster.ErrTopicExists), errors.Is(err, trigger.ErrTriggerExists):
		return http.StatusConflict
	case errors.Is(err, cluster.ErrBadConfig), errors.Is(err, cluster.ErrShrinkPartitions):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

type handler func(w http.ResponseWriter, r *http.Request, tok *auth.Token)

// auth wraps a handler with bearer-token validation and a scope check.
func (s *Server) auth(scope string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if raw == "" || raw == r.Header.Get("Authorization") {
			writeErr(w, http.StatusUnauthorized, errors.New("ows: missing bearer token"))
			return
		}
		tok, err := s.Fabric.Auth.Require(raw, scope)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		h(w, r, tok)
	}
}

// TopicResponse is the JSON view of a topic.
type TopicResponse struct {
	Name              string   `json:"name"`
	Partitions        int      `json:"partitions"`
	ReplicationFactor int      `json:"replication_factor"`
	RetentionHours    float64  `json:"retention_hours"`
	Compact           bool     `json:"compact"`
	Owner             string   `json:"owner"`
	Permissions       []string `json:"permissions"`
}

func topicResponse(meta *cluster.TopicMeta, perms []auth.Permission) TopicResponse {
	ps := make([]string, len(perms))
	for i, p := range perms {
		ps[i] = string(p)
	}
	return TopicResponse{
		Name:              meta.Name,
		Partitions:        meta.Config.Partitions,
		ReplicationFactor: meta.Config.ReplicationFactor,
		RetentionHours:    meta.Config.Retention.Hours(),
		Compact:           meta.Config.Compact,
		Owner:             meta.Owner,
		Permissions:       ps,
	}
}

// TopicConfigRequest is the body of PUT/POST /topic/{topic}.
type TopicConfigRequest struct {
	Partitions        int     `json:"partitions,omitempty"`
	ReplicationFactor int     `json:"replication_factor,omitempty"`
	RetentionHours    float64 `json:"retention_hours,omitempty"`
	Compact           bool    `json:"compact,omitempty"`
}

func (req *TopicConfigRequest) toConfig() cluster.TopicConfig {
	return cluster.TopicConfig{
		Partitions:        req.Partitions,
		ReplicationFactor: req.ReplicationFactor,
		Retention:         time.Duration(req.RetentionHours * float64(time.Hour)),
		Compact:           req.Compact,
	}
}

func (s *Server) createTopic(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	var req TopicConfigRequest
	if r.ContentLength > 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("ows: bad body: %w", err))
			return
		}
	}
	meta, err := s.Fabric.CreateTopic(name, tok.Identity.ID, req.toConfig())
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, topicResponse(meta, s.Fabric.ACL.Permissions(name, tok.Identity.ID)))
}

func (s *Server) listTopics(w http.ResponseWriter, _ *http.Request, tok *auth.Token) {
	topics := s.Fabric.ACL.TopicsFor(tok.Identity.ID)
	if topics == nil {
		topics = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"topics": topics})
}

func (s *Server) getTopic(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	if err := s.Fabric.ACL.Check(name, tok.Identity.ID, auth.PermDescribe); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	meta, err := s.Fabric.Ctl.Topic(name)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, topicResponse(meta, s.Fabric.ACL.Permissions(name, tok.Identity.ID)))
}

func (s *Server) setTopicConfig(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	if err := s.requireOwner(name, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	var req TopicConfigRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("ows: bad body: %w", err))
		return
	}
	meta, err := s.Fabric.Ctl.SetConfig(name, req.toConfig())
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, topicResponse(meta, s.Fabric.ACL.Permissions(name, tok.Identity.ID)))
}

// PartitionsRequest is the body of POST /topic/{topic}/partitions.
type PartitionsRequest struct {
	Partitions int `json:"partitions"`
}

func (s *Server) setPartitions(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	if err := s.requireOwner(name, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	var req PartitionsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("ows: bad body: %w", err))
		return
	}
	meta, err := s.Fabric.Ctl.SetPartitions(name, req.Partitions)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, topicResponse(meta, s.Fabric.ACL.Permissions(name, tok.Identity.ID)))
}

// UserGrantRequest is the body of POST /topic/{topic}/user: grant or
// revoke (§IV-B "Grant (or revoke) an identity access to the topic").
type UserGrantRequest struct {
	Identity    string   `json:"identity"`
	Permissions []string `json:"permissions,omitempty"`
	Revoke      bool     `json:"revoke,omitempty"`
}

func (s *Server) setTopicUser(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	if err := s.requireOwner(name, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	var req UserGrantRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Identity == "" {
		writeErr(w, http.StatusBadRequest, errors.New("ows: body needs an identity"))
		return
	}
	perms := make([]auth.Permission, 0, len(req.Permissions))
	for _, p := range req.Permissions {
		perms = append(perms, auth.Permission(p))
	}
	var err error
	if req.Revoke {
		err = s.Fabric.ACL.Revoke(name, req.Identity, perms...)
	} else {
		err = s.Fabric.ACL.Grant(name, req.Identity, perms...)
	}
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"topic":       name,
		"identity":    req.Identity,
		"permissions": s.Fabric.ACL.Permissions(name, req.Identity),
	})
}

func (s *Server) deleteTopic(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	name := r.PathValue("topic")
	if err := s.requireOwner(name, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if err := s.Fabric.Ctl.DeleteTopic(name); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	s.Fabric.ACL.RevokeAllForTopic(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// requireOwner restricts mutating topic operations to the owner.
func (s *Server) requireOwner(topic string, tok *auth.Token) error {
	meta, err := s.Fabric.Ctl.Topic(topic)
	if err != nil {
		return err
	}
	if meta.Owner != tok.Identity.ID {
		return fmt.Errorf("%w: %s is not the owner of %s", auth.ErrDenied, tok.Identity.Username, topic)
	}
	return nil
}

// KeyResponse is the body of GET /create_key.
type KeyResponse struct {
	AccessKeyID string `json:"access_key_id"`
	Secret      string `json:"secret_access_key"`
	Identity    string `json:"identity"`
	Username    string `json:"username"`
}

func (s *Server) createKey(w http.ResponseWriter, _ *http.Request, tok *auth.Token) {
	key, err := s.Fabric.Auth.CreateKey(tok.Identity.ID)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, KeyResponse{
		AccessKeyID: key.AccessKeyID,
		Secret:      key.Secret,
		Identity:    tok.Identity.ID,
		Username:    tok.Identity.Username,
	})
}

// TriggerRequest is the body of PUT /trigger and POST /trigger/{id}.
type TriggerRequest struct {
	ID        string `json:"id"`
	Topic     string `json:"topic"`
	Action    string `json:"action"`
	Pattern   string `json:"pattern,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`
	// BatchWindowMs is the trigger's idle re-check and retry back-off
	// interval (trigger.Config.BatchWindow; 0 keeps the 100 ms default).
	// It is not a delivery latency: an append wakes the trigger itself.
	BatchWindowMs  int `json:"batch_window_ms,omitempty"`
	MaxConcurrency int `json:"max_concurrency,omitempty"`
}

// TriggerResponse describes a deployed trigger.
type TriggerResponse struct {
	ID             string `json:"id"`
	Topic          string `json:"topic"`
	Group          string `json:"group"`
	Pattern        string `json:"pattern,omitempty"`
	BatchSize      int    `json:"batch_size"`
	MaxConcurrency int    `json:"max_concurrency"`
	Concurrency    int    `json:"concurrency"`
	Invocations    int64  `json:"invocations"`
	Delivered      int64  `json:"events_delivered"`
	Filtered       int64  `json:"events_filtered"`
	Backlog        int64  `json:"backlog"`
}

func triggerResponse(t *trigger.Trigger) TriggerResponse {
	cfg := t.Config()
	st := t.Stats()
	return TriggerResponse{
		ID:             cfg.ID,
		Topic:          cfg.Topic,
		Group:          cfg.Group,
		Pattern:        cfg.PatternJSON,
		BatchSize:      cfg.BatchSize,
		MaxConcurrency: cfg.MaxConcurrency,
		Concurrency:    st.Concurrency,
		Invocations:    st.Invocations,
		Delivered:      st.EventsDelivered,
		Filtered:       st.EventsFiltered,
		Backlog:        st.Backlog,
	}
}

func (s *Server) deployTrigger(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	var req TriggerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("ows: bad body: %w", err))
		return
	}
	// The trigger consumes the topic on the user's behalf, so the user
	// must hold READ on it.
	if err := s.Fabric.ACL.Check(req.Topic, tok.Identity.ID, auth.PermRead); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	cfg := trigger.Config{
		ID:             req.ID,
		Topic:          req.Topic,
		PatternJSON:    req.Pattern,
		BatchSize:      req.BatchSize,
		BatchWindow:    time.Duration(req.BatchWindowMs) * time.Millisecond,
		MaxConcurrency: req.MaxConcurrency,
		OnBehalfOf:     tok.Identity.ID,
	}
	t, err := s.Triggers.Deploy(cfg, req.Action)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, triggerResponse(t))
}

func (s *Server) listTriggers(w http.ResponseWriter, _ *http.Request, tok *auth.Token) {
	var out []TriggerResponse
	for _, id := range s.Triggers.List() {
		t, err := s.Triggers.Get(id)
		if err != nil {
			continue
		}
		if t.Config().OnBehalfOf != tok.Identity.ID {
			continue
		}
		out = append(out, triggerResponse(t))
	}
	if out == nil {
		out = []TriggerResponse{}
	}
	writeJSON(w, http.StatusOK, map[string][]TriggerResponse{"triggers": out})
}

func (s *Server) requireTriggerOwner(id string, tok *auth.Token) (*trigger.Trigger, error) {
	t, err := s.Triggers.Get(id)
	if err != nil {
		return nil, err
	}
	if t.Config().OnBehalfOf != tok.Identity.ID {
		return nil, fmt.Errorf("%w: trigger %s", auth.ErrDenied, id)
	}
	return t, nil
}

func (s *Server) updateTrigger(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	id := r.PathValue("id")
	if _, err := s.requireTriggerOwner(id, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	var req TriggerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("ows: bad body: %w", err))
		return
	}
	t, err := s.Triggers.Update(id, func(c *trigger.Config) {
		if req.BatchSize > 0 {
			c.BatchSize = req.BatchSize
		}
		if req.BatchWindowMs > 0 {
			c.BatchWindow = time.Duration(req.BatchWindowMs) * time.Millisecond
		}
		if req.MaxConcurrency > 0 {
			c.MaxConcurrency = req.MaxConcurrency
		}
		if req.Pattern != "" {
			c.PatternJSON = req.Pattern
		}
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, triggerResponse(t))
}

func (s *Server) deleteTrigger(w http.ResponseWriter, r *http.Request, tok *auth.Token) {
	id := r.PathValue("id")
	if _, err := s.requireTriggerOwner(id, tok); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if err := s.Triggers.Remove(id); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// metrics is the unauthenticated admin console endpoint (the Grafana /
// Kafka UI stand-in of Figure 2).
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, line := range s.Fabric.Metrics.Snapshot() {
		fmt.Fprintln(w, line)
	}
}

// StatusResponse is the admin cluster view: live brokers and per-topic
// partition health (leader, ISR size), the "system's live status" the
// Kafka UI console of Figure 2 shows.
type StatusResponse struct {
	Brokers []BrokerStatus `json:"brokers"`
	Topics  []TopicStatus  `json:"topics"`
}

// BrokerStatus describes one broker node.
type BrokerStatus struct {
	ID    int  `json:"id"`
	VCPUs int  `json:"vcpus"`
	MemGB int  `json:"mem_gb"`
	Live  bool `json:"live"`
}

// TopicStatus summarizes a topic's partition health.
type TopicStatus struct {
	Name             string         `json:"name"`
	Partitions       int            `json:"partitions"`
	UnderReplicated  int            `json:"under_replicated"`
	Leaderless       int            `json:"leaderless"`
	PartitionLeaders map[string]int `json:"partition_leaders"`
}

func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	var resp StatusResponse
	for _, id := range s.Fabric.Ctl.LiveBrokers() {
		info, err := s.Fabric.Ctl.BrokerInfo(id)
		if err != nil {
			continue
		}
		live := true
		if n, ok := s.Fabric.Node(id); ok {
			live = !n.Down()
		}
		resp.Brokers = append(resp.Brokers, BrokerStatus{ID: id, VCPUs: info.VCPUs, MemGB: info.MemGB, Live: live})
	}
	for _, name := range s.Fabric.Ctl.Topics() {
		meta, err := s.Fabric.Ctl.Topic(name)
		if err != nil {
			continue
		}
		ts := TopicStatus{
			Name:             name,
			Partitions:       meta.Config.Partitions,
			PartitionLeaders: make(map[string]int, len(meta.Partitions)),
		}
		for _, pm := range meta.Partitions {
			ts.PartitionLeaders[fmt.Sprintf("%d", pm.ID)] = pm.Leader
			if pm.Leader < 0 {
				ts.Leaderless++
			}
			if len(pm.ISR) < len(pm.Replicas) {
				ts.UnderReplicated++
			}
		}
		resp.Topics = append(resp.Topics, ts)
	}
	writeJSON(w, http.StatusOK, resp)
}
