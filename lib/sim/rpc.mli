(** Remote procedure calls over the simulated network.

    The paper writes representative operations as
    ["Send(<invocation>) to(<instance>)"] with ARGUS-like semantics; this is
    that primitive with explicit failure handling: the caller blocks until a
    reply arrives or the timeout expires. Server-side exceptions (transaction
    deadlock aborts, representative errors) travel back in the reply and are
    re-raised at the caller, matching local-call semantics.

    The one primitive is {!call_at_most_once}: a request carries a fresh id
    and, with [attempts] above 1, is retransmitted with exponential backoff
    and jitter; the server deduplicates by request id, so a request executes
    at most once per server incarnation no matter how often the network
    duplicates it or the client retries — lost replies are answered from the
    dedup cache instead of re-running the operation. *)

open Repdir_util

type error = Timeout

type server
(** Per-destination dedup state: request id -> in-flight marker or cached
    reply. Volatile — reset it when the node crashes. *)

val server : ?cap:int -> ?ttl:float -> unit -> server
(** A dedup cache whose finished entries expire: each arriving request first
    drops cached replies older than [ttl] sim-time units (default 300.0) and
    then enforces the [cap] backstop (default 512, oldest first), so the
    cache is bounded at [cap] finished entries plus whatever is in flight no
    matter how long the server lives. Eviction happens only on request
    arrival — it schedules no timer events and draws no randomness — and its
    per-arrival cost is constant: the cap backstop pops at most one entry
    per arrival in steady state, and TTL expiry is limited to a handful of
    pops per arrival, so a retry storm arriving after an idle stretch drains
    a stale backlog across the storm instead of stalling its first request
    on an O(cap) scan. Choose
    [ttl] comfortably above the client's worst-case retransmission horizon
    ([timeout] and backoff sum across [attempts]); an evicted entry merely
    re-opens the idempotent re-execution window that a crash-reset opens
    anyway. *)

val reset_server : server -> unit
(** Forget all cached replies (the node's volatile memory was lost). A
    retried request whose execution predates the reset re-executes; callers
    rely on representative operations being idempotent. *)

val server_entries : server -> int
(** Current cache size: finished (unexpired) plus in-flight entries. *)

val call_at_most_once :
  Net.t ->
  src:Net.node_id ->
  dst:Net.node_id ->
  server:server ->
  timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?rng:Rng.t ->
  ?on_retry:(unit -> unit) ->
  (unit -> 'r) ->
  ('r, error) result
(** Must be invoked from inside a simulator process. The handler runs as a
    process at [dst] (and may itself block, e.g. on locks); its result or
    exception is shipped back, and replies arriving after the call returned
    are dropped. The request carries a fresh id from {!Net.fresh_rpc_id} and
    is sent up to [attempts] times total (default 1, i.e. no retries), each
    attempt waiting [timeout] for a reply. Between attempts the caller sleeps
    [backoff * 2^k * jitter] virtual time, jitter uniform in [0.5, 1.5) when
    [rng] is supplied and 1 otherwise. [on_retry] runs before each
    retransmission (for statistics). Every attempt shares one reply slot, so
    a straggler reply to an earlier attempt completes the call; duplicate
    requests hit the server's dedup cache and are answered without
    re-executing the operation. *)
