module Net = Esr_sim.Net
module Engine = Esr_sim.Engine
module Prng = Esr_util.Prng
module Trace = Esr_obs.Trace

type mode = Unordered | Fifo

type backoff = { multiplier : float; max_interval : float; jitter : float }

let default_backoff = { multiplier = 2.0; max_interval = 800.0; jitter = 0.1 }

(* Sender-side state of one src->dst channel: the journal.  It survives
   crashes of the sender (stable storage) and drives retry.  Sequence
   numbers are dense, so the unacknowledged ones all lie in the window
   [base, next_seq), and seq [s] lives in slot [s land (cap - 1)] of three
   parallel rings: its payload, when it was last transmitted (a timer tick
   retransmits only messages that have waited a full interval) and a
   live flag, cleared by the ack.  [base] advances over the acked prefix;
   the rings double only when the window outgrows them.  An acked slot
   drops its payload for [filler], the channel's first payload, so a
   channel pins at most one message that is no longer pending. *)
type 'a chan = {
  mutable base : int;  (* every seq below is acked *)
  mutable next_seq : int;
  mutable payloads : 'a array;
  mutable last_sent : float array;
  mutable live : Bytes.t;  (* '\001' while the slot's seq awaits its ack *)
  mutable unacked : int;
  filler : 'a;
  mutable timer_active : bool;
  mutable cur_interval : float;
      (* current retry interval; equals the base interval unless a backoff
         policy is installed, in which case it doubles (capped) while the
         channel makes no progress and resets on ack *)
}

(* Receiver-side state of one src->dst channel.  [floor] is the delivered
   prefix: every seq below it has been handed up ([Fifo]: the next seq
   due).  [Unordered] marks the seqs delivered above it in [window], a
   ring bitmap over [floor, floor + 8 * length window), so dedup costs no
   allocation per message.  [seen_floor] is the checkpoint-GC watermark:
   the delivered seqs at or above it are the records {!gc_site} reclaims. *)
type 'a recv = {
  mutable floor : int;
  mutable seen_floor : int;
  mutable window : Bytes.t;
  mutable above : int;  (* delivered seqs at or above [floor] *)
  mutable reorder : (int, 'a) Hashtbl.t option;  (* Fifo gap buffer, made at the first gap *)
}

type counters = {
  enqueued : int;
  delivered_first : int;
  duplicates_suppressed : int;
  retransmissions : int;
  acks_received : int;
}

type 'a t = {
  net : Net.t;
  mode : mode;
  retry_interval : float;
  backoff : backoff option;
  jitter_prng : Prng.t;  (* only consumed when [backoff] is installed *)
  handler : site:int -> src:int -> 'a -> unit;
  chans : 'a chan option array array;  (* [src].(dst), made on first send *)
  recvs : 'a recv option array array;  (* [dst].(src), made on first arrival *)
  mutable n_enqueued : int;
  mutable n_delivered : int;
  mutable n_dup : int;
  mutable n_retx : int;
  mutable n_acks : int;
  mutable n_pending : int;
  journaled_by : int array;  (* cumulative per-src journal appends *)
  trace : Trace.t;  (* session-layer events: send / first delivery / dup *)
  ports : ports Lazy.t;  (* forced in [create]; lazy only to tie the knot *)
}

(* The transport runs on three ports registered once per fabric, so a
   message allocates nothing beyond amortized ring growth.  A data
   or ack message carries its sequence number (the net packs src and dst
   alongside); a retry tick carries its channel, [src * sites + dst]. *)
and ports = { data : Net.port; ack : Net.port; tick : Engine.port }

let register_metrics t (m : Esr_obs.Metrics.t) =
  let g name f = Esr_obs.Metrics.gauge_fn m ~group:"squeue" name f in
  g "enqueued" (fun () -> float_of_int t.n_enqueued);
  g "delivered_first" (fun () -> float_of_int t.n_delivered);
  g "duplicates_suppressed" (fun () -> float_of_int t.n_dup);
  g "retransmissions" (fun () -> float_of_int t.n_retx);
  g "acks_received" (fun () -> float_of_int t.n_acks);
  g "pending" (fun () -> float_of_int t.n_pending)

let[@inline] note_dup t ~src ~dst seq =
  t.n_dup <- t.n_dup + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_dup { src; dst; seq })

let[@inline] note_delivered t ~src ~dst seq =
  t.n_delivered <- t.n_delivered + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_delivered { src; dst; seq })

(* The channel of a seq that has been sent: its first send made it. *)
let sent_chan t ~src ~dst =
  match t.chans.(src).(dst) with
  | Some chan -> chan
  | None -> invalid_arg "Squeue: no message sent on this channel"

let[@inline] slot chan seq = seq land (Array.length chan.payloads - 1)
let[@inline] is_live chan i = Bytes.unsafe_get chan.live i <> '\000'

(* A first delivery reads the payload from the sender's journal.  It is
   still there: a seq is acked only after it has been delivered, and any
   later copy of a delivered seq is caught by the dedup checks, which run
   before the lookup. *)
let journaled_payload t ~src ~dst seq =
  let chan = sent_chan t ~src ~dst in
  chan.payloads.(slot chan seq)

let recv_of t ~dst ~src =
  match t.recvs.(dst).(src) with
  | Some recv -> recv
  | None ->
      let recv =
        {
          floor = 0;
          seen_floor = 0;
          window = (match t.mode with Unordered -> Bytes.make 8 '\000' | Fifo -> Bytes.empty);
          above = 0;
          reorder = None;
        }
      in
      t.recvs.(dst).(src) <- Some recv;
      recv

(* Seq [s] is bit [s land (bits - 1)] of a window of [bits] bits;
   meaningful only for [floor <= s < floor + bits]. *)
let[@inline] bits window = Bytes.length window lsl 3

let[@inline] marked window seq =
  let b = seq land (bits window - 1) in
  Char.code (Bytes.unsafe_get window (b lsr 3)) land (1 lsl (b land 7)) <> 0

let[@inline] flip window seq =
  let b = seq land (bits window - 1) in
  let i = b lsr 3 in
  Bytes.unsafe_set window i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get window i) lxor (1 lsl (b land 7))))

let[@inline] was_delivered recv seq =
  seq < recv.floor || (seq - recv.floor < bits recv.window && marked recv.window seq)

(* Record a first [Unordered] delivery of [seq >= floor], widening the
   window until it covers [seq], then advance the delivered prefix over
   the marks it reaches, clearing them. *)
let mark_delivered recv seq =
  let old = recv.window in
  let n = ref (bits old) in
  while seq - recv.floor >= !n do
    n := 2 * !n
  done;
  if !n > bits old then begin
    recv.window <- Bytes.make (!n lsr 3) '\000';
    for s = recv.floor to recv.floor + bits old - 1 do
      if marked old s then flip recv.window s
    done
  end;
  flip recv.window seq;
  recv.above <- recv.above + 1;
  while recv.above > 0 && marked recv.window recv.floor do
    flip recv.window recv.floor;
    recv.floor <- recv.floor + 1;
    recv.above <- recv.above - 1
  done

let reorder_buffer recv =
  match recv.reorder with
  | Some r -> r
  | None ->
      let r = Hashtbl.create 8 in
      recv.reorder <- Some r;
      r

let deliver t ~dst ~src seq =
  let recv = recv_of t ~dst ~src in
  match t.mode with
  | Unordered ->
      if was_delivered recv seq then note_dup t ~src ~dst seq
      else begin
        let payload = journaled_payload t ~src ~dst seq in
        mark_delivered recv seq;
        note_delivered t ~src ~dst seq;
        t.handler ~site:dst ~src payload
      end
  | Fifo ->
      let buffered, gap_open =
        match recv.reorder with
        | Some r -> (Hashtbl.mem r seq, Hashtbl.length r > 0)
        | None -> (false, false)
      in
      if seq < recv.floor || buffered then note_dup t ~src ~dst seq
      else if seq = recv.floor && not gap_open then begin
        (* In-order fast path — the overwhelmingly common case on a
           healthy link: no reorder-buffer round trip, no allocation. *)
        let payload = journaled_payload t ~src ~dst seq in
        recv.floor <- seq + 1;
        note_delivered t ~src ~dst seq;
        t.handler ~site:dst ~src payload
      end
      else begin
        let r = reorder_buffer recv in
        Hashtbl.replace r seq (journaled_payload t ~src ~dst seq);
        (* Hand up the contiguous prefix. *)
        let rec drain () =
          match Hashtbl.find r recv.floor with
          | exception Not_found -> ()
          | p ->
              let seq = recv.floor in
              Hashtbl.remove r seq;
              recv.floor <- seq + 1;
              note_delivered t ~src ~dst seq;
              t.handler ~site:dst ~src p;
              drain ()
        in
        drain ()
      end

let ack t ~src ~dst seq =
  let chan = sent_chan t ~src ~dst in
  let i = slot chan seq in
  if seq >= chan.base && seq < chan.next_seq && is_live chan i then begin
    Bytes.unsafe_set chan.live i '\000';
    chan.payloads.(i) <- chan.filler;
    chan.unacked <- chan.unacked - 1;
    while chan.base < chan.next_seq && not (is_live chan (slot chan chan.base)) do
      chan.base <- chan.base + 1
    done;
    t.n_acks <- t.n_acks + 1;
    t.n_pending <- t.n_pending - 1;
    (* Forward progress: the peer is reachable again, so retry promptly. *)
    chan.cur_interval <- t.retry_interval
  end

let[@inline] ports t = Lazy.force t.ports

(* Arrival at [dst] delivers (with dedup) and fires an ack back. *)
let on_data t ~src ~dst seq =
  deliver t ~dst ~src seq;
  Net.send t.net ~src:dst ~dst:src (ports t).ack seq

let transmit t ~src ~dst seq = Net.send t.net ~src ~dst (ports t).data seq

let arm_timer t ~src ~dst chan =
  if not chan.timer_active then begin
    chan.timer_active <- true;
    let delay =
      match t.backoff with
      | None -> t.retry_interval
      | Some b ->
          (* Bounded multiplicative jitter decorrelates channels that
             entered backoff at the same instant. *)
          chan.cur_interval
          *. (1.0 +. Prng.float t.jitter_prng (Float.max 0.0 b.jitter))
    in
    Engine.schedule_port (Net.engine t.net) ~delay (ports t).tick
      ((src * Net.sites t.net) + dst)
  end

(* Retransmit, in sequence order, every outstanding message on [chan] that
   has waited at least [min_wait]; returns whether any went out. *)
let[@inline] retransmit t ~src ~dst chan ~min_wait =
  let now = Engine.now (Net.engine t.net) in
  let sent = ref false in
  for seq = chan.base to chan.next_seq - 1 do
    let i = slot chan seq in
    if is_live chan i && now -. chan.last_sent.(i) >= min_wait then begin
      t.n_retx <- t.n_retx + 1;
      chan.last_sent.(i) <- now;
      transmit t ~src ~dst seq;
      sent := true
    end
  done;
  !sent

let on_tick t c =
  let n = Net.sites t.net in
  let src = c / n and dst = c mod n in
  let chan = sent_chan t ~src ~dst in
  chan.timer_active <- false;
  if chan.unacked > 0 then begin
    (* Only retransmit messages that have waited a full interval; fresher
       ones may still be acked in flight. *)
    let retransmitted =
      retransmit t ~src ~dst chan ~min_wait:(t.retry_interval -. 1e-9)
    in
    (match t.backoff with
    | Some b when retransmitted ->
        (* No ack since the last full interval: the peer is likely crashed
           or partitioned away, so widen the retry gap instead of storming
           the link. *)
        chan.cur_interval <-
          Float.min (chan.cur_interval *. b.multiplier) b.max_interval
    | _ -> ());
    arm_timer t ~src ~dst chan
  end

(* Immediate retransmission of everything outstanding on one channel —
   fired when a fault heals so recovery does not wait out a (possibly
   backed-off) retry interval.  A channel with nothing outstanding is
   already at the base interval: the ack that emptied it reset it. *)
let kick_chan t ~src ~dst =
  match t.chans.(src).(dst) with
  | Some chan when chan.unacked > 0 ->
      chan.cur_interval <- t.retry_interval;
      ignore (retransmit t ~src ~dst chan ~min_wait:neg_infinity);
      arm_timer t ~src ~dst chan
  | _ -> ()

let kick_site t site =
  for peer = 0 to Net.sites t.net - 1 do
    if peer <> site then begin
      (* Both directions: the recovered site drains its own journal and
         peers flush what queued up for it while it was down. *)
      kick_chan t ~src:site ~dst:peer;
      kick_chan t ~src:peer ~dst:site
    end
  done

let kick_all t =
  for src = 0 to Net.sites t.net - 1 do
    for dst = 0 to Net.sites t.net - 1 do
      if src <> dst then kick_chan t ~src ~dst
    done
  done

let create ?(mode = Unordered) ?(retry_interval = 50.0) ?backoff ?obs net
    ~handler =
  let n = Net.sites net in
  let rec t =
    {
      net;
      mode;
      retry_interval;
      backoff;
      jitter_prng = Prng.create 0x5132_77AB;
      handler;
      chans = Array.init n (fun _ -> Array.make n None);
      recvs = Array.init n (fun _ -> Array.make n None);
      n_enqueued = 0;
      n_delivered = 0;
      n_dup = 0;
      n_retx = 0;
      n_acks = 0;
      n_pending = 0;
      journaled_by = Array.make n 0;
      trace =
        (match obs with
        | Some (o : Esr_obs.Obs.t) -> o.Esr_obs.Obs.trace
        | None -> Trace.make ~capacity:1 ~enabled:false ());
      ports =
        lazy
          {
            data = Net.port ~cls:"data" net (fun ~src ~dst seq -> on_data t ~src ~dst seq);
            ack =
              Net.port ~cls:"ack" net (fun ~src ~dst seq ->
                  ack t ~src:dst ~dst:src seq);
            tick = Engine.port (fun c -> on_tick t c);
          };
    }
  in
  ignore (ports t);
  (match obs with
  | Some (o : Esr_obs.Obs.t) -> register_metrics t o.Esr_obs.Obs.metrics
  | None -> ());
  (* Fault-heal hooks: a recovered site (or a healed partition) triggers an
     immediate retransmission pass instead of waiting out the timers.  In a
     fault-free run these hooks never fire, so behaviour is unchanged. *)
  Net.on_recover net (fun site -> kick_site t site);
  Net.on_heal net (fun () -> kick_all t);
  t

let chan_for_send t ~src ~dst payload =
  match t.chans.(src).(dst) with
  | Some chan -> chan
  | None ->
      let chan =
        {
          base = 0;
          next_seq = 0;
          payloads = [| payload |];
          last_sent = [| 0.0 |];
          live = Bytes.make 1 '\000';
          unacked = 0;
          filler = payload;
          timer_active = false;
          cur_interval = t.retry_interval;
        }
      in
      t.chans.(src).(dst) <- Some chan;
      chan

(* Double the rings, re-slotting the window [base, next_seq). *)
let grow chan =
  let cap = 2 * Array.length chan.payloads in
  let payloads = Array.make cap chan.filler
  and last_sent = Array.make cap 0.0
  and live = Bytes.make cap '\000' in
  for seq = chan.base to chan.next_seq - 1 do
    let i = slot chan seq and j = seq land (cap - 1) in
    payloads.(j) <- chan.payloads.(i);
    last_sent.(j) <- chan.last_sent.(i);
    Bytes.unsafe_set live j (Bytes.unsafe_get chan.live i)
  done;
  chan.payloads <- payloads;
  chan.last_sent <- last_sent;
  chan.live <- live

let send t ~src ~dst payload =
  let chan = chan_for_send t ~src ~dst payload in
  let seq = chan.next_seq in
  if seq - chan.base = Array.length chan.payloads then grow chan;
  let i = slot chan seq in
  chan.payloads.(i) <- payload;
  chan.last_sent.(i) <- Engine.now (Net.engine t.net);
  Bytes.unsafe_set chan.live i '\001';
  chan.next_seq <- seq + 1;
  chan.unacked <- chan.unacked + 1;
  t.n_enqueued <- t.n_enqueued + 1;
  t.n_pending <- t.n_pending + 1;
  t.journaled_by.(src) <- t.journaled_by.(src) + 1;
  if Trace.on t.trace then
    Trace.emit t.trace
      ~time:(Engine.now (Net.engine t.net))
      (Trace.Squeue_send { src; dst; seq });
  transmit t ~src ~dst seq;
  arm_timer t ~src ~dst chan

let broadcast t ~src payload =
  for dst = 0 to Net.sites t.net - 1 do
    if dst <> src then send t ~src ~dst payload
  done

let multicast t ~src ~dests payload =
  Esr_store.Sharding.Dests.iter dests (fun dst ->
      if dst <> src then send t ~src ~dst payload)

let pending t = t.n_pending

(* Sums one site's inbound or outbound channels. *)
let sum_over row f =
  Array.fold_left (fun n -> function Some x -> n + f x | None -> n) 0 row

(* Sender-side journal footprint of one site: entries it has durably
   queued but not yet seen acknowledged, across all its channels. *)
let journal_depth t ~site = sum_over t.chans.(site) (fun chan -> chan.unacked)

let journaled t ~site = t.journaled_by.(site)

(* Receiver-side dedup journal footprint of one site: the delivered seqs
   at or above each inbound channel's GC watermark (the part the
   checkpoint GC reclaims; the watermark itself is O(1) per channel).
   Fifo channels retain nothing per-seq. *)
let dedup_depth t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      sum_over t.recvs.(site) (fun recv -> recv.floor - recv.seen_floor + recv.above)

(* Checkpoint GC over one site's inbound dedup journals: advance each
   channel's watermark to its delivered prefix, reclaiming the records
   behind it.  A retransmission below the prefix is suppressed by the
   prefix alone, so exactly-once delivery is unaffected.  Returns the
   number of records reclaimed.  Fifo channels retain nothing per-seq
   ([floor] already is the watermark), so there is nothing to collect. *)
let gc_site t ~site =
  match t.mode with
  | Fifo -> 0
  | Unordered ->
      sum_over t.recvs.(site) (fun recv ->
          let reclaimed = recv.floor - recv.seen_floor in
          recv.seen_floor <- recv.floor;
          reclaimed)

let counters t =
  {
    enqueued = t.n_enqueued;
    delivered_first = t.n_delivered;
    duplicates_suppressed = t.n_dup;
    retransmissions = t.n_retx;
    acks_received = t.n_acks;
  }
