type t = {
  name : string;
  offer : Frame.Payload.t -> bool;
  set_on_deliver : (payload:Frame.Payload.t -> unit) -> unit;
  sender_backlog : unit -> int;
  stop : unit -> unit;
  metrics : Metrics.t;
}
