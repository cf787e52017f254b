type decision = Committed | Aborted

type counters = {
  mutable commits : int;
  mutable aborts : int;
  mutable resolutions : int;
  mutable presumed_aborts : int;
}

type t = {
  id : int;
  log : Wal.t;
  decisions : (Txn.id, decision) Hashtbl.t;
  counters : counters;
}

let create ?(id = -1) () =
  {
    id;
    log = Wal.create ();
    decisions = Hashtbl.create 32;
    counters = { commits = 0; aborts = 0; resolutions = 0; presumed_aborts = 0 };
  }

let id t = t.id
let counters t = t.counters
let decision t txn = Hashtbl.find_opt t.decisions txn
let log_length t = Wal.length t.log

(* Same floor and preconditions as a representative's automatic checkpoint:
   compacting only a fully forced log never changes what a crash can destroy,
   and every decided id stays readable from the checkpoint's chunks. *)
let compaction_floor = 64

let compact t =
  if Wal.length t.log > compaction_floor && Wal.settled t.log then
    Wal.checkpoint t.log ~entries:[] ~low_gap:Repdir_key.Version.lowest

let decide t txn d =
  match Hashtbl.find_opt t.decisions txn with
  | Some existing -> existing
  | None ->
      (match d with
      | Committed ->
          (* The commit decision is the transaction's point of no return: it
             must be on stable storage before any participant is told to
             commit, or a coordinator crash could forget a half-propagated
             commit and later presume it aborted. *)
          Wal.append t.log (Wal.Commit txn);
          Wal.sync t.log;
          t.counters.commits <- t.counters.commits + 1
      | Aborted ->
          (* Presumed abort: the record is advisory (it speeds up termination
             queries) and never forced — losing it just means a resolver is
             answered by the no-information rule below. *)
          Wal.append t.log (Wal.Abort txn);
          t.counters.aborts <- t.counters.aborts + 1);
      Hashtbl.replace t.decisions txn d;
      compact t;
      d

let resolve t txn =
  t.counters.resolutions <- t.counters.resolutions + 1;
  match Hashtbl.find_opt t.decisions txn with
  | Some d -> d
  | None ->
      (* No decision on file. Presumed abort makes this answer binding: we
         record the abort first-writer-wins, so a decide [Committed] racing
         in later loses and the commit round degrades into an abort. This is
         how an in-doubt participant's query terminates a transaction whose
         coordinator stalled mid-protocol. *)
      t.counters.presumed_aborts <- t.counters.presumed_aborts + 1;
      decide t txn Aborted

let recover t =
  Hashtbl.reset t.decisions;
  ignore (Wal.repair t.log);
  Wal.iter_outcomes t.log (fun txn verdict ->
      Hashtbl.replace t.decisions txn
        (match verdict with `Committed -> Committed | `Aborted -> Aborted))
