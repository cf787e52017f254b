(** Operation latency on the simulated network: sequential vs parallel
    quorum RPCs (the §5 message-traffic/latency optimization).

    The paper's pseudo-code contacts quorum members one at a time; a real
    implementation overlaps the round trips. With exponential(mean 1)
    message latency, a sequential k-member round costs about 2k mean RTT
    halves while a parallel round costs the maximum of k draws — the gap
    grows with quorum size, and Delete (several rounds per operation)
    benefits most. *)

type row = {
  op : string;
  sequential : float;  (** mean virtual-time latency *)
  parallel : float;
  speedup : float;
}

val table : ?seed:int64 -> ?ops:int -> config:Repdir_quorum.Config.t -> unit -> Repdir_util.Table.t
