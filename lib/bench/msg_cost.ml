(* Words the stable-queue transport allocates per message.  Every site of
   a 50-site fabric broadcasts [rounds] times, 4 ms apart, to a no-op
   handler, and the engine runs to quiescence.  The figure covers all a
   message costs end to end — its share of the journal and dedup rings,
   the data and ack sends and their engine events, retry ticks — counted
   as minor + major − promoted words (each allocated word once) and
   divided by the number of messages.  A minor collection on either side of the run makes the
   count exact: [Gc.counters] credits minor words only as the minor heap
   is collected, so without them the figure would drift with the minor
   heap's fill. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Squeue = Esr_squeue.Squeue
module Prng = Esr_util.Prng

let sites = 50
let rounds = 20

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let words_per_message mode =
  let engine = Engine.create () in
  let net = Net.create engine ~sites ~prng:(Prng.create 1) in
  let q = Squeue.create ~mode net ~handler:(fun ~site:_ ~src:_ (_ : int) -> ()) in
  Gc.minor ();
  let w0 = words () in
  for r = 0 to (rounds * sites) - 1 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int r *. 4.0) (fun () ->
           Squeue.broadcast q ~src:(r mod sites) r))
  done;
  Engine.run engine;
  Gc.minor ();
  (words () -. w0) /. float_of_int (rounds * sites * (sites - 1))
