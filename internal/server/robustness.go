// Robustness layer: admission control, per-request deadlines and panic
// quarantine for the heavy endpoints, plus session survival — spool-backed
// LRU eviction and shutdown drain. See doc.go ("Fault model and
// degradation ladder") for the contracts this file implements.
package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
)

// Robustness defaults; fields on Server override them.
const (
	// defaultMaxInFlight bounds concurrently executing explain/repair
	// requests server-wide. Each one fans out across its session engine's
	// worker pool, so admission — not goroutine pressure — is what keeps a
	// saturated server answering its cheap endpoints.
	defaultMaxInFlight = 4
	// defaultMaxBodyBytes bounds request bodies (CSV uploads included): a
	// runaway body ties up memory before any session code runs.
	defaultMaxBodyBytes = 10 << 20
	// retryAfterSeconds is the backoff hint sent with 429 responses.
	retryAfterSeconds = 1
	// drainTimeout bounds the shutdown drain: in-flight requests get this
	// long to finish before their contexts are cancelled.
	drainTimeout = 10 * time.Second
)

// errQuarantined marks a session disabled by a panicked request.
type quarantineError struct {
	id    string
	cause string
}

func (q *quarantineError) Error() string {
	return fmt.Sprintf("session %s quarantined after panic: %s", q.id, q.cause)
}

// maxInFlight resolves the admission bound.
func (s *Server) maxInFlight() int {
	if s.MaxInFlight > 0 {
		return s.MaxInFlight
	}
	return defaultMaxInFlight
}

// maxBodyBytes resolves the body limit.
func (s *Server) maxBodyBytes() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return defaultMaxBodyBytes
}

// admit claims one in-flight-explain slot without blocking. It returns a
// release function, or ok=false when the server is saturated — the caller
// answers 429 with a Retry-After hint, the load-shedding contract: a
// saturated server degrades by rejecting crisply, never by queueing
// unboundedly or slowing every request.
func (s *Server) admit() (release func(), ok bool) {
	s.mu.Lock()
	if s.inflight == nil {
		s.inflight = make(chan struct{}, s.maxInFlight())
	}
	ch := s.inflight
	s.mu.Unlock()
	select {
	case ch <- struct{}{}:
		return func() { <-ch }, true
	default:
		return nil, false
	}
}

// reject429 answers a saturated heavy endpoint.
func reject429(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, http.StatusTooManyRequests, fmt.Errorf("server saturated; retry after %ds", retryAfterSeconds))
}

// reqContext derives the context a heavy request computes under: the
// client's (cancelled on disconnect), bounded by the per-request deadline
// when one is configured. The returned cancel must run when the handler
// exits so an abandoned computation releases its workers immediately —
// the 408 path's "cancel the underlying computation" contract.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// checkQuarantine answers 409 with diagnostics when the session was
// disabled by an earlier panic. Call with entry.mu held.
func checkQuarantine(w http.ResponseWriter, entry *session) bool {
	if entry.quarantined != nil {
		writeError(w, http.StatusConflict, entry.quarantined)
		return true
	}
	return false
}

// guard returns a deferred recovery hook for a session-scoped handler: a
// panic escaping the handler (a black-box bug, or an injected fault) is
// contained — the session is quarantined with diagnostics and the request
// answers 409 — instead of killing the process and every other session
// with it. Register it *after* the entry.mu unlock defer so it runs while
// the lock is still held.
func (s *Server) guard(w http.ResponseWriter, id string, entry *session) func() {
	return func() {
		r := recover()
		if r == nil {
			return
		}
		cause := fmt.Sprintf("%v", r)
		s.mu.Lock()
		entry.quarantined = &quarantineError{id: id, cause: cause}
		s.mu.Unlock()
		// The stack goes to stderr for the operator; the response carries
		// the cause only.
		fmt.Fprintf(os.Stderr, "server: panic in session %s: %v\n%s", id, r, debug.Stack())
		writeError(w, http.StatusConflict, entry.quarantined)
	}
}

// recoverAll is the outermost safety net: a panic outside any session
// scope (routing, decoding) answers 500 instead of crashing the server.
func recoverAll(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				fmt.Fprintf(os.Stderr, "server: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitBody installs the request-body cap on every request.
func (s *Server) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes())
		}
		next.ServeHTTP(w, r)
	})
}

// --- Session survival: spool, LRU eviction, drain -----------------------

// touch stamps the entry's recency and enforces the live-session budget.
// Call without s.mu held.
func (s *Server) touch(entry *session) {
	s.mu.Lock()
	s.clock++
	entry.lastTouch = s.clock
	s.mu.Unlock()
	s.enforceBudget()
}

// liveBudget resolves the LRU bound; 0 disables eviction.
func (s *Server) liveBudget() int {
	if s.SpoolDir == "" {
		return 0 // nowhere to evict to
	}
	return s.MaxLiveSessions
}

// enforceBudget evicts least-recently-used live sessions over the budget.
// Entries whose mutex is held (a request in flight) are skipped — they are
// by definition not idle — as are quarantined entries (their diagnostics
// state has no snapshot form). Eviction snapshots to the spool first; a
// failed snapshot keeps the session live (over budget beats losing user
// state).
func (s *Server) enforceBudget() {
	budget := s.liveBudget()
	if budget <= 0 {
		return
	}
	for {
		s.mu.Lock()
		// Scan in sorted id order so lastTouch ties evict the same victim
		// every run, not whichever id the map yields first.
		ids := make([]string, 0, len(s.sessions))
		for id := range s.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var victim *session
		var victimID string
		live := 0
		for _, id := range ids {
			entry := s.sessions[id]
			if entry.spooled {
				continue
			}
			live++
			if entry.quarantined != nil {
				continue
			}
			if victim == nil || entry.lastTouch < victim.lastTouch {
				victim, victimID = entry, id
			}
		}
		s.mu.Unlock()
		if live <= budget || victim == nil {
			return
		}
		if !victim.mu.TryLock() {
			// The LRU candidate is mid-request; it is not idle, so leave
			// the budget over-subscribed until the next touch.
			return
		}
		evicted := s.evictLocked(victimID, victim)
		victim.mu.Unlock()
		if !evicted {
			return
		}
	}
}

// evictLocked snapshots entry to the spool and drops its in-memory state.
// Caller holds entry.mu. Reports whether the eviction happened.
func (s *Server) evictLocked(id string, entry *session) bool {
	if entry.spooled || entry.sess == nil || entry.quarantined != nil {
		return false
	}
	if err := s.writeSpool(id, entry.sess); err != nil {
		fmt.Fprintf(os.Stderr, "server: spool %s: %v (keeping live)\n", id, err)
		return false
	}
	entry.sess = nil
	s.setSpooled(entry, true)
	return true
}

// setSpooled writes entry.spooled under Server.mu as well; the caller
// holds entry.mu (see the session struct for the two-lock discipline).
func (s *Server) setSpooled(entry *session, spooled bool) {
	s.mu.Lock()
	entry.spooled = spooled
	s.mu.Unlock()
}

// spoolPath is the snapshot file of one session id.
func (s *Server) spoolPath(id string) string {
	return filepath.Join(s.SpoolDir, id+".json")
}

// writeSpool atomically writes one session's snapshot (temp file + rename,
// so a crash mid-write never leaves a torn spool entry). A panic in the
// snapshot codec degrades to a write error: eviction and drain run on
// behalf of *other* requests, which must not fail because this session
// could not be spooled — the caller keeps it live instead.
func (s *Server) writeSpool(id string, sess *core.Session) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("snapshotting %s: panic: %v", id, rec)
		}
	}()
	return s.writeSpoolInner(id, sess)
}

func (s *Server) writeSpoolInner(id string, sess *core.Session) error {
	if s.SpoolDir == "" {
		return fmt.Errorf("no spool directory")
	}
	if err := os.MkdirAll(s.SpoolDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.SpoolDir, id+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := sess.Snapshot().WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.spoolPath(id))
}

// ensureLive restores entry if it was evicted between the registry lookup
// and the handler acquiring its lock — another request's touch can evict
// any idle session in that window, so every handler re-checks under
// entry.mu before reading entry.sess. Caller holds entry.mu.
func (s *Server) ensureLive(id string, entry *session) error {
	if entry.sess != nil {
		return nil
	}
	if entry.spooled {
		return s.restoreLocked(id, entry)
	}
	return fmt.Errorf("session %s has no live state", id)
}

// restoreLocked loads a spooled session back into memory. Caller holds
// entry.mu. A panic in the codec degrades to an error: the entry stays
// spooled and the request fails cleanly instead of crashing the process.
func (s *Server) restoreLocked(id string, entry *session) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("restoring session %s: panic: %v", id, rec)
		}
	}()
	return s.restoreLockedInner(id, entry)
}

func (s *Server) restoreLockedInner(id string, entry *session) error {
	f, err := os.Open(s.spoolPath(id))
	if err != nil {
		return fmt.Errorf("restoring session %s: %w", id, err)
	}
	defer f.Close()
	sn, err := core.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("restoring session %s: %w", id, err)
	}
	sess, err := core.RestoreSession(sn, func(name string) (repair.Algorithm, bool) {
		s.mu.Lock()
		alg, ok := s.algs[name]
		s.mu.Unlock()
		return alg, ok
	})
	if err != nil {
		return fmt.Errorf("restoring session %s: %w", id, err)
	}
	entry.sess = sess
	s.setSpooled(entry, false)
	return nil
}

// LoadSpool registers every spooled session found in SpoolDir so requests
// can restore them on demand — the restart half of the SIGTERM drain
// contract. Session IDs resume past the highest spooled ID, so new
// sessions never collide with restored ones.
func (s *Server) LoadSpool() error {
	if s.SpoolDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.SpoolDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if _, exists := s.sessions[id]; exists {
			continue
		}
		s.sessions[id] = &session{spooled: true}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	return nil
}

// Drain snapshots every live session to the spool — the SIGTERM half of
// session survival. Sessions mid-request are waited for via their mutex
// (ListenAndServe has already stopped accepting and cancelled their
// contexts, so the waits are short). Returns the first snapshot error but
// keeps draining the rest.
func (s *Server) Drain() error {
	if s.SpoolDir == "" {
		return nil
	}
	s.mu.Lock()
	// Drain in sorted id order: spool files land (and a first error is
	// attributed) identically across runs.
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	entries := make([]*session, len(ids))
	for i, id := range ids {
		entries[i] = s.sessions[id]
	}
	s.mu.Unlock()
	var firstErr error
	for i, entry := range entries {
		entry.mu.Lock()
		if !entry.spooled && entry.sess != nil && entry.quarantined == nil {
			if err := s.writeSpool(ids[i], entry.sess); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		entry.mu.Unlock()
	}
	return firstErr
}
