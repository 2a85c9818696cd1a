type t = { engine : Engine.t; rate : float; offset : float }

let create ?(rate = 1.0) ?(offset = 0.0) engine = { engine; rate; offset }
let read t = (t.rate *. Engine.now t.engine) +. t.offset
let true_time t = Engine.now t.engine
