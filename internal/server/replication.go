package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mcdc/internal/hashring"
	"mcdc/internal/model"
)

// Replication (fleet elasticity): when a daemon runs with Config.Replicate,
// every session checkpoint is written locally and then shipped to the
// session's ring successor, so a warm standby holds the latest state of
// every session and a dead backend's sessions can be promoted elsewhere
// without losing a single admitted request.
//
// The ordering invariant that makes failover lossless is
// checkpoint-before-respond: an assignment's response is not written until
// its post-apply checkpoint is durable locally and shipped (best-effort) to
// the successor, so the replica holds the state that produced the last
// delivered response — unless that ship failed. A failed ship is only
// logged and counted, the response still goes out, and the replica stays
// behind until a later ship lands; a promotion in that window resumes the
// older state. A checkpoint has no effect on the session's answers, so a
// promoted replica that did receive the last ship continues exactly as the
// owner would have, and as a daemon that never checkpoints does.
//
// Zombie fencing: checkpoints carry an ownership epoch (model.StreamState,
// format v2 onward). Promotion bumps the epoch; a replica receiver rejects any
// shipped checkpoint whose epoch is lower than what it already holds, so a
// partitioned old primary cannot overwrite the promoted state.

// fleetSecretHeader authenticates intra-fleet endpoints (replica shipping,
// promotion, adoption, membership pushes). When a fleet secret is set,
// requests without the matching header are refused with 403 (fleetOnly).
const fleetSecretHeader = "X-MCDC-Fleet-Secret"

// peerCall sends one fleet member's request to another (gateway to backend,
// replicator to replica holder): body, when non-nil, as Content-Type ctype,
// the request id when given, and the fleet secret when set. The caller closes
// the response body.
func peerCall(client *http.Client, secret, method, addr, path string, body []byte, ctype, reqID string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if reqID != "" {
		req.Header.Set(requestIDKey, reqID)
	}
	if secret != "" {
		req.Header.Set(fleetSecretHeader, secret)
	}
	return client.Do(req)
}

// replicator knows the fleet membership and ships checkpoint bytes to each
// session's ring successor. It is swapped atomically on membership changes
// (POST /v1/fleet), so in-flight ships finish against the ring they started
// with.
type replicator struct {
	self   string // this daemon's fleet address (host:port)
	secret string
	client *http.Client

	mu   sync.RWMutex
	ring *hashring.Ring
}

// shipTimeout bounds one replica ship. Ships run synchronously under the
// session mutex, install's included (this keeps per-session ship order, so
// a stale checkpoint can never overwrite a newer one at the receiver), which
// makes this timeout part of every assignment's latency on that session — it
// must stay far below the general 5s client default. A slow successor then
// costs at most this much per assignment, and the miss is surfaced as a ship
// failure (coverage gap in /healthz) instead of a stalled session.
const shipTimeout = 750 * time.Millisecond

// setMembership rebuilds the placement ring from the full fleet list
// (self included or not — self is added unconditionally).
func (r *replicator) setMembership(fleet []string) {
	ring := hashring.New(hashring.DefaultReplicas)
	ring.Add(r.self)
	ring.Add(fleet...)
	r.mu.Lock()
	r.ring = ring
	r.mu.Unlock()
}

// members returns the current fleet membership, sorted.
func (r *replicator) members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Nodes()
}

// target returns the backend that should hold id's replica: the first node
// in the session's ring-successor chain that is not this daemon. When this
// daemon is the ring owner that is the natural successor; when it holds the
// session off-ring (post-failover) it is the ring owner itself. "" means
// there is nowhere to ship (solo fleet).
func (r *replicator) target(id string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, n := range sessionChain(r.ring, id, 2) {
		if n != r.self {
			return n
		}
	}
	return ""
}

// ship POSTs one checkpoint's bytes to the session's replica holder.
// A 409 from the receiver means this daemon's state is stale (it lost
// ownership to a promotion) — surfaced as errStaleOwner so the caller can
// log the fencing event distinctly.
func (r *replicator) ship(id string, data []byte) (string, error) {
	t := r.target(id)
	if t == "" {
		return "", nil // solo fleet: local checkpoint is all the durability there is
	}
	resp, err := peerCall(r.client, r.secret, http.MethodPost, t, "/v1/replica/checkpoint?session="+id, data, "application/octet-stream", "")
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	switch {
	case resp.StatusCode == http.StatusConflict:
		return t, errStaleOwner
	case resp.StatusCode/100 != 2:
		return t, fmt.Errorf("replica target %s: HTTP %d", t, resp.StatusCode)
	}
	return t, nil
}

// errStaleOwner marks a ship rejected by epoch fencing: the receiver holds a
// newer ownership epoch, i.e. this daemon is a zombie primary for that id.
var errStaleOwner = errors.New("server: checkpoint rejected as stale (session was promoted elsewhere)")

// dropReplica asks a peer to delete its replica of id (after the session
// itself was deleted). Best-effort.
func (r *replicator) dropReplica(id string) {
	t := r.target(id)
	if t == "" {
		return
	}
	if resp, err := peerCall(r.client, r.secret, http.MethodDelete, t, "/v1/replica/"+id, nil, "", ""); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}
}

// replicaStore holds shipped checkpoints under <state-dir>/replicas/, one
// file per session, plus the highest ownership epoch seen per id (the
// fencing state). Epochs for files that predate this process are loaded
// lazily from the files themselves.
type replicaStore struct {
	dir    string
	mu     sync.Mutex
	epochs map[string]int64 // id → highest accepted epoch; epochUnknown = not yet read
}

const epochUnknown = int64(-1)

func newReplicaStore(dir string) (*replicaStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ids, err := checkpointIDs(dir)
	if err != nil {
		return nil, err
	}
	rs := &replicaStore{dir: dir, epochs: make(map[string]int64, len(ids))}
	for _, id := range ids {
		rs.epochs[id] = epochUnknown
	}
	return rs, nil
}

func (rs *replicaStore) path(id string) string { return filepath.Join(rs.dir, id+checkpointExt) }

func (rs *replicaStore) count() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.epochs)
}

func (rs *replicaStore) ids() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.epochs))
	for id := range rs.epochs {
		out = append(out, id)
	}
	return out
}

// epochLocked returns the highest accepted epoch for id, reading it from the
// on-disk file the first time after a restart. The caller holds rs.mu.
func (rs *replicaStore) epochLocked(id string) (int64, bool) {
	e, ok := rs.epochs[id]
	if !ok {
		return 0, false
	}
	if e == epochUnknown {
		st, err := model.LoadStreamFile(rs.path(id))
		if err != nil {
			// Unreadable pre-restart replica: treat as absent for fencing (a
			// fresh ship may repair it) but keep the file for inspection.
			delete(rs.epochs, id)
			return 0, false
		}
		e = st.OwnerEpoch
		rs.epochs[id] = e
	}
	return e, true
}

// accept stores one shipped checkpoint after fencing: a checkpoint whose
// epoch is strictly below the highest already accepted for that id is
// rejected (the shipper is a zombie primary). Same-epoch ships advance state
// — the primary ships after every assignment without bumping the epoch.
func (rs *replicaStore) accept(id string, data []byte, epoch int64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if cur, ok := rs.epochLocked(id); ok && epoch < cur {
		return errStaleOwner
	}
	if err := model.WriteFileAtomic(rs.path(id), data); err != nil {
		return err
	}
	rs.epochs[id] = epoch
	return nil
}

// drop deletes id's replica (after the session was deleted fleet-wide, moved
// here, or was promoted here).
func (rs *replicaStore) drop(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, ok := rs.epochs[id]
	delete(rs.epochs, id)
	if validateName(id) == nil {
		if os.Remove(rs.path(id)) == nil {
			ok = true
		}
	}
	return ok
}

// ---- server integration ----

// ConfigureReplication wires the daemon into a replicated fleet after New:
// self is this daemon's advertised address, peers the other fleet members.
// It may be called again to replace membership (tests, late binding of
// listener addresses). Requires Config.Replicate and a StateDir.
func (s *Server) ConfigureReplication(self string, peers []string, secret string) {
	r := &replicator{self: self, secret: secret, client: &http.Client{Timeout: shipTimeout}}
	r.setMembership(peers)
	s.fleetSecret = secret
	s.sessions.repl.Store(r)
	s.log.Info("replication configured", "self", self, "peers", peers)
}

// fleetOnly guards an intra-fleet route: with a fleet secret set, a request
// without the matching header gets the 403 envelope. The secret is read per
// request, because ConfigureReplication sets it after routes are registered.
func (s *Server) fleetOnly(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.fleetSecret != "" && r.Header.Get(fleetSecretHeader) != s.fleetSecret {
			writeError(w, http.StatusForbidden, codeForbidden, "missing or wrong %s", fleetSecretHeader)
			return
		}
		fn(w, r)
	}
}

// handleReplicaCheckpoint receives one shipped checkpoint
// (POST /v1/replica/checkpoint?session=<id>, body = envelope bytes).
func (s *Server) handleReplicaCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	if err := validateName(id); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if s.sessions.replicas == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "daemon runs without -replicate; not accepting replicas")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "read checkpoint: %v", err)
		return
	}
	st, err := model.LoadStream(bytes.NewReader(data))
	if err != nil {
		status, code := http.StatusBadRequest, codeBadRequest
		var verr *model.VersionError
		if errors.As(err, &verr) {
			status, code = http.StatusUnprocessableEntity, codeVersionMismatch
		}
		writeError(w, status, code, "decode checkpoint: %v", err)
		return
	}
	// Fence against the resident copy too: if this daemon owns the session at
	// an epoch at or above the shipper's, the shipper is the zombie.
	if cur, resident := s.sessions.residentEpoch(id); resident && st.OwnerEpoch <= cur {
		s.sessions.replicaStale.Add(1)
		writeError(w, http.StatusConflict, codeConflict,
			"session %q is owned here at epoch %d (shipped epoch %d)", id, cur, st.OwnerEpoch)
		return
	}
	if err := s.sessions.replicas.accept(id, data, st.OwnerEpoch); err != nil {
		if errors.Is(err, errStaleOwner) {
			s.sessions.replicaStale.Add(1)
			writeError(w, http.StatusConflict, codeConflict, "stale checkpoint for %q (epoch %d)", id, st.OwnerEpoch)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, "store replica: %v", err)
		return
	}
	s.sessions.replicaRecv.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaDelete drops a replica after its session was deleted.
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.sessions.replicas != nil {
		s.sessions.replicas.drop(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePromoteSession turns this daemon's replica of a session into the
// live, owned session with a bumped ownership epoch — the gateway calls this
// on the failover path after the owner stopped answering. Idempotent: if the
// session is already resident here at the same or a newer epoch, the current
// epoch is returned; a stale resident copy (this daemon rejoined with an old
// state dir after losing the session) is replaced by the newer replica.
func (s *Server) handlePromoteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validateName(id); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	epoch, err := s.sessions.promote(id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, codeUnknownSession, "no replica of session %q held here", id)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, "promote %q: %v", id, err)
		return
	}
	s.log.Info("promoted session from replica", "session", id, "epoch", epoch)
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "epoch": epoch})
}

// handleAdoptSession installs a migrated session from checkpoint bytes in
// the request body — the ring join/leave migration path. Like promotion it
// bumps the ownership epoch (fencing the previous owner) and replaces a
// stale resident copy while keeping a resident copy that is already at the
// same or a newer epoch.
func (s *Server) handleAdoptSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validateName(id); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "read checkpoint: %v", err)
		return
	}
	epoch, err := s.sessions.adopt(id, data)
	if err != nil {
		var verr *model.VersionError
		switch {
		case errors.As(err, &verr):
			writeError(w, http.StatusUnprocessableEntity, codeVersionMismatch, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, codeBadRequest, "adopt %q: %v", id, err)
		}
		return
	}
	s.log.Info("adopted migrated session", "session", id, "epoch", epoch)
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "epoch": epoch})
}

// handleSessionCheckpoint serves a session's current checkpoint bytes — the
// migration source. A session with unsaved state is flushed first.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validateName(id); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	data, err := s.sessions.checkpointBytes(id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, codeUnknownSession, "no session %q", id)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, "checkpoint %q: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// sessionInventory is a daemon's GET /v1/sessions answer, which the gateway
// reads (inventory): the sessions it owns and the replicas it holds, sorted.
type sessionInventory struct {
	Replicas []string `json:"replicas"`
	Sessions []string `json:"sessions"`
}

// handleListSessions inventories resident sessions and held replicas.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	inv := sessionInventory{Replicas: []string{}, Sessions: s.sessions.ids()}
	if s.sessions.replicas != nil {
		inv.Replicas = s.sessions.replicas.ids()
	}
	sort.Strings(inv.Replicas)
	sort.Strings(inv.Sessions)
	writeJSON(w, http.StatusOK, inv)
}

// handleFleet replaces this daemon's view of fleet membership (the gateway
// broadcasts the new list after a ring join/leave), re-aiming replica
// shipping at the new successors.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Peers []string `json:"peers"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	repl := s.sessions.repl.Load()
	if repl == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "daemon runs without -replicate; no fleet to configure")
		return
	}
	repl.setMembership(req.Peers)
	s.log.Info("fleet membership updated", "members", repl.members())
	writeJSON(w, http.StatusOK, map[string][]string{"members": repl.members()})
}
