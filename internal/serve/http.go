package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/obs"
	"multihopbandit/internal/spec"
)

// Server exposes a Registry over HTTP/JSON. Routes:
//
//	GET    /healthz                        liveness probe
//	GET    /metrics                        Prometheus text exposition
//	POST   /v1/instances                   create an instance (body: InstanceConfig)
//	GET    /v1/instances                   list instances
//	GET    /v1/instances/{id}              instance info
//	DELETE /v1/instances/{id}              close and remove the instance
//	GET    /v1/instances/{id}/assignment   current channel assignment
//	POST   /v1/instances/{id}/step         run self-simulation slots (body: {"slots": n})
//	POST   /v1/instances/{id}/observations apply observation batches (?async=1 = fire-and-forget)
//	GET    /v1/instances/{id}/snapshot     export learner + loop state
//	POST   /v1/instances/{id}/restore      import a snapshot
//
// The routing is hand-rolled (no Go 1.22 mux patterns) so the module keeps
// its go 1.21 floor.
type Server struct {
	reg   *Registry
	start time.Time

	// RegretMetrics switches the per-instance banditd_regret_* families.
	// On by default (NewServer): regret is a first-class serving surface,
	// and the genie optimum behind it (engine's exact MWIS, exponential in
	// the worst case) is computed once per artifact set and cached. Set
	// false before serving to opt out on pathological topologies; banditd
	// wires it to -regret.
	RegretMetrics bool

	latCreate   Histogram
	latStep     Histogram
	latObserve  Histogram
	latAssign   Histogram
	latSnapshot Histogram
	latRestore  Histogram
	latInfo     Histogram
}

// NewServer wraps a registry in an HTTP handler and registers the HTTP
// layer's metric families (uptime, request-duration summaries, per-instance
// regret) on the registry's exposition surface. One Server per Registry:
// a second NewServer on the same registry panics on the duplicate
// registrations.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, start: time.Now(), RegretMetrics: true}
	o := reg.Obs()
	o.RegisterValues("banditd_uptime_seconds", "Seconds since the server started.", obs.KindGauge,
		func(emit obs.EmitValue) { emit(time.Since(s.start).Seconds()) })
	o.RegisterSummary("banditd_request_duration_seconds", "HTTP request latency by operation, seconds.",
		[]float64{0.5, 0.9, 0.99}, 1e-9, func(emit obs.EmitHist) {
			for _, op := range s.latencyOps() {
				if op.h.Count() > 0 {
					emit(op.h, obs.L("op", op.name))
				}
			}
		})
	o.RegisterValues("banditd_optimal_kbps", "Genie-optimal static throughput W* of the instance's artifacts (kbps). For dynamic channel kinds this is the static catalog optimum.", obs.KindGauge,
		func(emit obs.EmitValue) {
			s.collectRegret(func(id string, opt float64, slots int64, regret float64) {
				emit(opt, obs.L("instance", id))
			})
		})
	o.RegisterValues("banditd_regret_window_slots", "Slots in the instance's observation window behind banditd_regret_kbps_total.", obs.KindGauge,
		func(emit obs.EmitValue) {
			s.collectRegret(func(id string, opt float64, slots int64, regret float64) {
				emit(float64(slots), obs.L("instance", id))
			})
		})
	o.RegisterValues("banditd_regret_kbps_total", "Cumulative regret over the observation window: window·W* − Σ observed (kbps) — the quantity whose O(√t log t) growth is the paper's Theorem 2. Gauge, not counter: the window resets on restore, and regret against the static optimum can shrink under dynamic channels.", obs.KindGauge,
		func(emit obs.EmitValue) {
			s.collectRegret(func(id string, opt float64, slots int64, regret float64) {
				emit(regret, obs.L("instance", id))
			})
		})
	return s
}

// latencyOps enumerates the request-duration histograms with their op
// labels, in exposition order.
func (s *Server) latencyOps() []struct {
	name string
	h    *Histogram
} {
	return []struct {
		name string
		h    *Histogram
	}{
		{"create", &s.latCreate},
		{"step", &s.latStep},
		{"observe", &s.latObserve},
		{"assignment", &s.latAssign},
		{"snapshot", &s.latSnapshot},
		{"restore", &s.latRestore},
		{"info", &s.latInfo},
	}
}

// collectRegret walks the hosted instances and reports each one's genie
// optimum, observation window and windowed regret (all on the paper's kbps
// scale) — the shared collector behind the three regret families. No-op
// when RegretMetrics is off; instances whose optimum cannot be computed are
// skipped.
func (s *Server) collectRegret(report func(id string, optKbps float64, slots int64, regretKbps float64)) {
	if !s.RegretMetrics {
		return
	}
	for _, h := range s.reg.handles() {
		inst, err := s.reg.cache.Scenario(h.spec)
		if err != nil {
			continue
		}
		opt, err := inst.Optimal()
		if err != nil {
			continue
		}
		slots, total := h.ObservedWindow()
		report(h.id, channel.Kbps(opt), slots, channel.Kbps(float64(slots)*opt-total))
	}
}

// CreateResponse reports a created instance.
type CreateResponse struct {
	ID          string `json:"id"`
	Shard       int    `json:"shard"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	K           int    `json:"k"`
	Policy      string `json:"policy"`
	Channel     string `json:"channel"`
	UpdateEvery int    `json:"update_every"`
}

// Error codes carried by every non-2xx response, so clients can distinguish
// failure classes without parsing message text.
const (
	// CodeInvalidRequest is a malformed body or invalid parameter.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidSpec is a scenario spec rejected by canonicalization
	// (unknown kind, bad field, unsupported version).
	CodeInvalidSpec = "invalid_spec"
	// CodeNotFound is an unknown instance, route or operation.
	CodeNotFound = "not_found"
	// CodeAlreadyExists is a create with a taken explicit ID.
	CodeAlreadyExists = "already_exists"
	// CodeInstanceClosed is a request to a closed (removed) instance.
	CodeInstanceClosed = "instance_closed"
	// CodeMethodNotAllowed is a known route with the wrong HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
)

// APIError is the structured error every endpoint returns:
// {"code": ..., "message": ...}. The typed client decodes it back, so
// callers can switch on Code (a failed create and a missing instance are
// distinguishable without string matching).
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Status is the HTTP status the error traveled with (client side only;
	// not serialized).
	Status int `json:"-"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorCode extracts the structured code from an error returned by Client,
// or "" if the error does not carry one (e.g. a transport failure).
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// maxRequestBody caps JSON request bodies (http.MaxBytesReader): a client
// exceeding it gets an invalid_request error instead of feeding the decoder
// an unbounded stream.
const maxRequestBody = 16 << 20

// bufPool recycles the request/response buffers of the JSON path, so the
// per-request garbage is the decoded payload itself rather than freshly
// grown encode/decode buffers on every call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, APIError{Code: code, Message: err.Error()})
}

// isSpecError reports whether err is one of the spec package's typed
// validation errors.
func isSpecError(err error) bool {
	var ke *spec.KindError
	var fe *spec.FieldError
	var ve *spec.VersionError
	return errors.As(err, &ke) || errors.As(err, &fe) || errors.As(err, &ve)
}

// instanceErrorStatus maps an instance-operation error to its HTTP status
// and structured code.
func instanceErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusGone, CodeInstanceClosed
	case isSpecError(err):
		return http.StatusBadRequest, CodeInvalidSpec
	default:
		return http.StatusBadRequest, CodeInvalidRequest
	}
}

// decodeBody decodes a JSON request body into v, rejecting unknown fields
// so typos in client payloads fail loudly. The body is read through
// http.MaxBytesReader (oversized requests error instead of streaming
// unbounded) into a pooled buffer, so steady-state requests reuse one
// read buffer instead of growing a fresh decoder chunk each call.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		return fmt.Errorf("serve: read request body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decode request body: %w", err)
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case path == "/metrics":
		s.handleMetrics(w)
	case path == "/v1/instances":
		switch r.Method {
		case http.MethodPost:
			s.handleCreate(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, map[string]any{"instances": s.reg.List()})
		default:
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed on %s", r.Method, path))
		}
	case strings.HasPrefix(path, "/v1/instances/"):
		rest := strings.TrimPrefix(path, "/v1/instances/")
		id, op, _ := strings.Cut(rest, "/")
		if id == "" {
			writeError(w, http.StatusNotFound, CodeNotFound, errors.New("serve: missing instance id"))
			return
		}
		s.handleInstance(w, r, id, op)
	default:
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("serve: no route %s", path))
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	defer s.observeSince(&s.latCreate, time.Now())
	var cfg InstanceConfig
	if err := decodeBody(w, r, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	h, err := s.reg.Create(cfg)
	if err != nil {
		switch {
		case errors.Is(err, ErrExists):
			writeError(w, http.StatusConflict, CodeAlreadyExists, err)
		case isSpecError(err):
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		}
		return
	}
	canon := h.Spec()
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID:          h.ID(),
		Shard:       h.Shard(),
		N:           canon.Topology.N,
		M:           canon.Channel.M,
		K:           h.K(),
		Policy:      canon.Policy.Kind,
		Channel:     canon.Channel.Kind,
		UpdateEvery: canon.Decision.UpdateEvery,
	})
}

func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request, id, op string) {
	h, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("serve: no instance %q", id))
		return
	}
	switch op {
	case "":
		switch r.Method {
		case http.MethodGet:
			defer s.observeSince(&s.latInfo, time.Now())
			info, err := h.Info()
			if err != nil {
				s.writeInstanceError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, info)
		case http.MethodDelete:
			if err := s.reg.Remove(id); err != nil {
				writeError(w, http.StatusNotFound, CodeNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		default:
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		}
	case "assignment":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
			return
		}
		defer s.observeSince(&s.latAssign, time.Now())
		as, err := h.Assignment()
		if err != nil {
			s.writeInstanceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, as)
	case "step":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
			return
		}
		defer s.observeSince(&s.latStep, time.Now())
		var body struct {
			Slots int `json:"slots"`
		}
		if err := decodeBody(w, r, &body); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		if body.Slots == 0 {
			body.Slots = 1
		}
		res, err := h.Step(body.Slots)
		if err != nil {
			s.writeInstanceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	case "observations":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
			return
		}
		defer s.observeSince(&s.latObserve, time.Now())
		var body struct {
			Batches []ObservationBatch `json:"batches"`
		}
		if err := decodeBody(w, r, &body); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		if r.URL.Query().Get("async") == "1" {
			if err := h.PushObservations(body.Batches); err != nil {
				s.writeInstanceError(w, err)
				return
			}
			writeJSON(w, http.StatusAccepted, map[string]int{"enqueued": len(body.Batches)})
			return
		}
		res, err := h.Observe(body.Batches)
		if err != nil {
			s.writeInstanceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	case "snapshot":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
			return
		}
		defer s.observeSince(&s.latSnapshot, time.Now())
		snap, err := h.Snapshot()
		if err != nil {
			s.writeInstanceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	case "restore":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
			return
		}
		defer s.observeSince(&s.latRestore, time.Now())
		var snap Snapshot
		if err := decodeBody(w, r, &snap); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		if err := h.Restore(&snap); err != nil {
			s.writeInstanceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"restored": id})
	default:
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("serve: no operation %q", op))
	}
}

func (s *Server) writeInstanceError(w http.ResponseWriter, err error) {
	status, code := instanceErrorStatus(err)
	writeError(w, status, code, err)
}

func (s *Server) observeSince(h *Histogram, start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// handleMetrics renders the registry's exposition in the Prometheus text
// format 0.0.4 (obs.Registry.WritePrometheus; every scrape passes
// obs.Validate, which CI enforces).
func (s *Server) handleMetrics(w http.ResponseWriter) {
	var b strings.Builder
	s.reg.Obs().WritePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
