// The multi-session serving layer: many concurrent interactive-cleaning
// sessions hosted behind one SessionManager, multiplexed over a shared
// worker pool.
//
// Request model. Each session is the paper's Fig. 6 loop cut at the
// interaction boundary (core/pipeline.h StagePhase): Step runs the machine
// half up to the next composite question and parks; Answer resolves the
// outstanding question and folds the repairs. Between the two the session
// holds no thread — a server can park thousands of users mid-question.
//
// Admission control. Three explicit bounds, each rejecting with
// kResourceExhausted (retry-after-backoff) rather than queueing unboundedly:
//   * max_sessions           — total live sessions (resident + evicted);
//   * max_inflight_requests  — requests executing or waiting, manager-wide;
//   * max_queued_per_session — waiters on one session's lock.
//
// Eviction. At most max_resident_sessions keep their engine state in
// memory; beyond that the least-recently-touched idle session is serialized
// to snapshot_dir and destroyed. The next request that touches it restores
// from disk transparently. Restored sessions are bit-identical to
// uninterrupted ones (the caches rebuild on first touch; the snapshot
// differential suite asserts equality), so eviction is invisible except in
// latency.
//
// Locking. map_mu_ guards the session map and dataset registry and is only
// ever held briefly; per-entry mutexes serialize session operations. The
// one ordering rule: a thread holding map_mu_ never blocks on an entry
// mutex (the eviction scan uses try_lock), so the two levels cannot
// deadlock. Create/Restore publish a new entry while already holding its
// entry mutex (entry->mu, then map_mu_ — legal under the rule above), so a
// freshly inserted session cannot be evicted before its resident accounting
// is consistent.
#ifndef VISCLEAN_SERVE_SESSION_MANAGER_H_
#define VISCLEAN_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "datagen/generator.h"
#include "obs/metrics.h"

namespace visclean {

class KernelBatcher;
class ThreadPool;

/// \brief Serving-layer configuration.
struct ServeOptions {
  /// Sessions allowed to keep their engine state in memory. Beyond this the
  /// least-recently-touched session is evicted to snapshot_dir (requires a
  /// non-empty snapshot_dir; otherwise the bound is inoperative).
  size_t max_resident_sessions = 64;
  /// Total live sessions, resident or evicted. Create/Restore beyond this
  /// reject with kResourceExhausted.
  size_t max_sessions = 256;
  /// Requests executing or waiting across the whole manager. The bound on
  /// server-side concurrency; excess requests reject, they never queue.
  size_t max_inflight_requests = 32;
  /// Waiters allowed on a single session's lock (one slow session must not
  /// absorb the whole in-flight budget).
  size_t max_queued_per_session = 4;
  /// Directory for eviction snapshots; "" disables eviction.
  std::string snapshot_dir;
  /// Worker threads of the shared pool lent to every session's benefit
  /// stage (0 = no pool, sessions compute serially inside their request).
  size_t pool_threads = 0;
  /// Coalesce the batchable kernels (EM inference, pair features, kNN) of
  /// concurrent sessions into shared pool dispatches (see
  /// serve/kernel_batcher.h). Requires a pool; results are bit-identical to
  /// unbatched execution.
  bool batch_kernels = true;
  /// How long a batch leader waits for co-batchers (skipped when at most
  /// one request is in flight).
  size_t batch_window_micros = 150;
  /// Cap on work items per combined dispatch.
  size_t batch_max_items = 16;
  /// Checkpoint every session to snapshot_dir after each successful Step and
  /// Answer (best-effort, same files eviction uses). This is the crash-
  /// recovery substrate for sharded serving: a router re-homes a dead
  /// shard's sessions from these files, and a Step-time checkpoint captures
  /// the parked composite question so even a mid-plan kill restores to the
  /// exact interaction boundary. Requires a non-empty snapshot_dir.
  bool persist_progress = false;
};

/// \brief Client-visible session state (the Status request's payload).
struct SessionInfo {
  std::string id;
  std::string dataset;
  size_t iteration = 0;  ///< rounds started (== completed when !pending)
  size_t budget = 0;
  bool pending = false;   ///< a question is out, Answer is the next step
  bool finished = false;  ///< budget fully resolved
  bool resident = true;   ///< false: evicted to disk, restores on touch
  double emd = 0.0;       ///< EMD after the last resolved round
};

/// \brief Monotone counters for observability and the serve tests.
struct ServeStats {
  uint64_t sessions_created = 0;
  uint64_t steps = 0;
  uint64_t answers = 0;
  uint64_t snapshots = 0;
  uint64_t evictions = 0;
  uint64_t restores_from_disk = 0;
  uint64_t rejected_capacity = 0;       ///< max_sessions hit
  uint64_t rejected_inflight = 0;       ///< max_inflight_requests hit
  uint64_t rejected_session_queue = 0;  ///< max_queued_per_session hit

  // Incrementality counters folded from every resolved iteration across all
  // hosted sessions (see IterationTrace::incremental): how often the caches
  // serviced a round with a delta versus a full rebuild.
  uint64_t detect_full_scans = 0;
  uint64_t detect_delta_updates = 0;
  uint64_t erg_full_builds = 0;
  uint64_t erg_delta_updates = 0;
  uint64_t sim_join_full = 0;
  uint64_t sim_join_fallbacks = 0;
  uint64_t sim_join_delta_syncs = 0;

  // Cross-session kernel batching occupancy (zero when batching is off; see
  // serve/kernel_batcher.h). batches counts combined pool dispatches, items
  // the per-session work units coalesced into them, rows the total index
  // space — items/batches is the mean batch occupancy.
  uint64_t em_infer_batches = 0;
  uint64_t em_infer_batch_items = 0;
  uint64_t em_infer_batch_rows = 0;
  uint64_t pair_feature_batches = 0;
  uint64_t pair_feature_batch_items = 0;
  uint64_t pair_feature_batch_rows = 0;
  uint64_t knn_batches = 0;
  uint64_t knn_batch_items = 0;
  uint64_t knn_batch_rows = 0;
};

/// \brief Hosts many concurrent VisCleanSessions keyed by session id.
///
/// All public methods are thread-safe. Operations on one session serialize;
/// operations on distinct sessions run concurrently (sharing the worker
/// pool batch-by-batch).
class SessionManager {
 public:
  explicit SessionManager(ServeOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers the ground-truth dataset sessions and snapshots resolve by
  /// name (DirtyDataset::name). The oracle must outlive the manager.
  /// Duplicate names are rejected.
  Status RegisterDataset(const DirtyDataset* oracle);

  /// Creates, initializes, and admits a session over a registered dataset.
  /// `id` must be non-empty and filename-safe ([A-Za-z0-9._-]); `vql` is
  /// parsed here. Rejects duplicate ids and, with kResourceExhausted, ids
  /// beyond max_sessions.
  Result<SessionInfo> Create(const std::string& id, const std::string& dataset,
                             const std::string& vql, SessionOptions options,
                             UserOptions user_options = {},
                             UserCostModel cost_model = {});

  /// Runs the session up to its next composite question (the plan phase).
  /// Fails when a question is already pending or the budget is exhausted.
  Result<PendingInteraction> Step(const std::string& id);

  /// Resolves the pending question: collects the user's responses (the
  /// session's oracle-backed user) and applies the repairs. Returns the
  /// completed round's trace.
  Result<IterationTrace> Answer(const std::string& id);

  /// The session's client-visible state. Cheap: never restores an evicted
  /// session (reports its last known state with resident = false).
  Result<SessionInfo> GetStatus(const std::string& id);

  /// Serializes the session's durable state to `path` (explicit export;
  /// independent of eviction). The session stays live.
  Status Snapshot(const std::string& id, const std::string& path);

  /// Admits a new session `id` rehydrated from a Snapshot() file. The
  /// snapshot's dataset must be registered. The restored session resumes
  /// bit-identically to the one that was captured.
  Result<SessionInfo> Restore(const std::string& id, const std::string& path);

  /// Destroys the session (resident or evicted) and its eviction file.
  Status Close(const std::string& id);

  /// Serializes the session's durable state to bytes (the VCSN snapshot
  /// codec — the wire migration format). With `remove` the session is
  /// atomically retired under its own lock after capture: later requests
  /// see kUnavailable ("migrated away") rather than kNotFound, which a
  /// router translates into re-resolving placement. Export-with-remove is
  /// the source half of the pin→drain→export→import migration handoff: the
  /// entry lock *is* the pin (concurrent requests queue on it and drain
  /// into the tombstone).
  Result<std::string> ExportSession(const std::string& id, bool remove);

  /// Admits session `id` from ExportSession()/Snapshot bytes — the target
  /// half of a migration. The snapshot's dataset must be registered. Clears
  /// any migration tombstone for `id`.
  Result<SessionInfo> ImportSession(const std::string& id,
                                    const std::string& state);

  /// Ids of all live sessions (resident or evicted), for drain loops and
  /// crash recovery.
  std::vector<std::string> live_sessions() const;

  /// Point-in-time counter snapshot. Derived from registry() — the wire
  /// encoding is unchanged, but the numbers and the exported metrics now
  /// share one source and can never disagree.
  ServeStats stats() const;

  /// This manager's telemetry registry: every ServeStats counter, the
  /// request-latency histograms (serve.step_ns, serve.answer_ns,
  /// serve.queue_wait_ns), per-stage timings and kernel-batcher occupancy
  /// of the hosted sessions. Per-manager (not process-global) so in-process
  /// multi-shard fleets keep separable stats.
  obs::Registry& registry() const { return registry_; }

  /// Live sessions currently resident in memory (tests + metrics).
  size_t resident_sessions() const { return resident_.load(); }

 private:
  struct Entry;
  struct LockedEntry;

  Result<LockedEntry> LockSession(const std::string& id);
  Status RestoreResident(Entry& entry);
  void TouchLocked(Entry& entry);
  void MaybeEvict();
  /// Hands the heap pages freed by destroyed sessions back to the OS
  /// (glibc keeps them in its arenas otherwise, so resident memory would
  /// track the number of sessions ever served, not the number live). Call
  /// after Close, eviction or export-with-remove has destroyed a session,
  /// once that session's lock is released.
  static void ReleaseFreedMemory();
  void PersistLocked(Entry& entry);
  Result<SessionInfo> AdmitFromState(const std::string& id,
                                     const SessionSnapshotState& state);
  void RecordMoved(const std::string& id);
  std::string EvictionPath(const std::string& id) const;
  Result<std::unique_ptr<VisCleanSession>> BuildSession(
      const DirtyDataset* oracle, const std::string& vql,
      const SessionOptions& options, const UserOptions& user_options,
      const UserCostModel& cost_model) const;

  ServeOptions options_;
  /// Telemetry registry backing every counter below plus the latency
  /// histograms; declared first so it outlives the batcher and the hosted
  /// sessions that hold resolved handles into it. Mutable: handing it to a
  /// session in const BuildSession does not change manager state.
  mutable obs::Registry registry_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared across sessions; may be null
  /// Cross-session kernel batcher lent to every hosted session; null when
  /// batching is disabled or there is no pool. Declared after pool_ (it
  /// borrows it) and destroyed first.
  std::unique_ptr<KernelBatcher> batcher_;

  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_;
  std::map<std::string, const DirtyDataset*> datasets_;
  /// Migration tombstones: sessions exported with remove=true. Values are a
  /// monotone admission order so the map can be pruned oldest-first at
  /// kMaxMovedTombstones. Guarded by map_mu_.
  std::map<std::string, uint64_t> moved_;
  uint64_t moved_seq_ = 0;

  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> resident_{0};
  std::atomic<uint64_t> clock_{0};  ///< logical time for LRU eviction

  // stats: registry-backed counters, resolved once in the constructor
  // (stats() reads them back into a ServeStats; the registry snapshot
  // exports the same cells, so the two views cannot drift).
  obs::Counter* c_created_;
  obs::Counter* c_steps_;
  obs::Counter* c_answers_;
  obs::Counter* c_snapshots_;
  obs::Counter* c_evictions_;
  obs::Counter* c_restores_;
  obs::Counter* c_rejected_capacity_;
  obs::Counter* c_rejected_inflight_;
  obs::Counter* c_rejected_queue_;
  obs::Counter* c_detect_full_;
  obs::Counter* c_detect_delta_;
  obs::Counter* c_erg_full_;
  obs::Counter* c_erg_delta_;
  obs::Counter* c_join_full_;
  obs::Counter* c_join_fallback_;
  obs::Counter* c_join_delta_;
  obs::Histogram* h_step_ns_;        ///< PlanIteration execute time
  obs::Histogram* h_answer_ns_;      ///< ResolveIteration execute time
  obs::Histogram* h_queue_wait_ns_;  ///< LockSession admission + lock wait
};

}  // namespace visclean

#endif  // VISCLEAN_SERVE_SESSION_MANAGER_H_
