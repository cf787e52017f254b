(** Quorum collection policies.

    The paper's §4 simulations select quorum members "randomly from a uniform
    distribution" ({!Random}); §5 observes that *stable* write quorums make
    deletion coalescing nearly free ({!Fixed}), and Figure 16 shows a
    locality configuration where transactions read entirely from local
    representatives and spread their one non-local write across the remote
    ones ({!Locality}). *)

open Repdir_util

(** Per-replica gray-failure signal: client-local EWMA latency and success
    rate per representative. Feed it from the transport ({!observe});
    consult it through the {!strategy.Healthy} collection policy and
    {!outlier}. Nothing is exchanged between clients — a replica that is
    slow only on some paths (classic gray failure) is judged by each client
    from its own vantage point. *)
module Health : sig
  type t

  val create : n:int -> unit -> t
  (** [n] representatives, all initially healthy. Latency and success rate
      are smoothed with EWMA gain 0.2; a representative with at least 4
      observations (gray windows are short, so detection must be quick) is
      an {!outlier} when its smoothed latency exceeds 3 times the median
      smoothed latency of its sampled peers, or when its smoothed success
      rate drops below one half. *)

  val observe : t -> int -> latency:float -> ok:bool -> unit
  (** Record one call to representative [i]: its duration as seen by this
      client (queueing and transport included) and whether it produced a
      reply (a timeout or crash is [ok:false]; an application-level error in
      a prompt reply is still [ok:true]). *)

  val samples : t -> int -> int

  val outlier : t -> int -> bool
  (** Whether representative [i] currently looks gray — see {!create}.
      Always false until 4 observations have accumulated, and
      false when no peer has enough samples to define a baseline. *)
end

type strategy =
  | Random
      (** Uniformly random minimal quorum among available representatives;
          given a key ({!collect_joint}), the key's home quorum instead. *)
  | Fixed of int array
      (** Preference order; the first available representatives that reach
          the quorum are used, so quorums change only on failures. *)
  | Locality of { local : int array; remote : int array }
      (** Reads collect the local representatives first; writes take all
          needed local representatives and spread the remainder uniformly
          over remote ones (Figure 16). *)
  | Healthy of Health.t
      (** Uniformly random like {!Random}, but representatives the health
          tracker currently flags as outliers are ordered last (within each
          preference class), so quorums avoid gray replicas whenever the
          healthy ones can muster the votes — and still fall back to them
          when they cannot. Termination is identical to {!Random}: demoted,
          never excluded. *)

val home_order : string -> Config.t -> int list
(** The key's rendezvous order (Thaler & Ravishankar): every slot of the
    configuration, ranked by a hash of (slot, key), highest first. Nothing is
    drawn from any RNG, so every client ranks a key's slots alike. A key's
    home quorum ({!collect_joint} with [key]) is the first available slots
    of this order; the batched cached read names the quorum member that
    comes first in it as the one that sends the payload. *)

val collect_joint :
  ?prefer:(int -> bool) ->
  ?key:string ->
  strategy ->
  Rng.t ->
  (Config.t * int) list ->
  available:(int -> bool) ->
  (int array, int) result
(** Collect one set of representatives that {i simultaneously} reaches every
    [(config, quorum)] target. A single target is an ordinary quorum (the
    general form the baselines use); several are the joint-quorum rule
    governing operations while a membership change is in flight: the set
    must muster the quorum in the old view {i and} in the new one, so
    quorums on either side of the transition intersect. All targets must
    agree on the slot count. Candidates are walked in strategy order, and
    those useless to every still-unmet target (zero votes in each) are
    skipped, so the result is minimal in the single-target case. [Error k]
    names the index of the first target whose quorum cannot be met from the
    available representatives — the view the caller should blame in its
    error message.

    [prefer] (default: nobody) marks members to try first under {!Random}
    and {!Healthy} — the batched suite prefers representatives its
    transaction has already touched, so the final work round lands where the
    piggybacked prepare saves a message. Membership within each class stays
    uniformly random; {!Fixed} and {!Locality} orders are deliberate and
    ignore it.

    [key] (default: none) makes {!Random} walk the slots in the key's
    rendezvous order instead of drawing one (Thaler & Ravishankar; Dynamo's
    preference lists): slots ranked by a hash of (slot, key), touched
    members still first. Nothing is drawn from [rng], so every client picks
    the same {i home quorum} for the key whatever its seed, and keys still
    spread over the slots as evenly as random draws do. A member that is
    not [available] is passed over, so the key's next slot stands in until
    it returns. The other strategies ignore [key]. *)

val read_quorum :
  strategy -> Rng.t -> Config.t -> available:(int -> bool) -> int array option
(** Representative indices whose votes total at least R, or [None] if no
    available set reaches the quorum. The result never contains zero-vote
    representatives. *)

val write_quorum :
  strategy -> Rng.t -> Config.t -> available:(int -> bool) -> int array option
(** Same for W. With a [Locality] strategy the local representatives are
    always included (they are where subsequent local reads look). *)
