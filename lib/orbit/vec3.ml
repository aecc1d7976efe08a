type t = { x : float; y : float; z : float }

let make x y z = { x; y; z }

let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }

let scale k v = { x = k *. v.x; y = k *. v.y; z = k *. v.z }

let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

let norm2 v = dot v v

let norm v = sqrt (norm2 v)

let distance a b = norm (sub a b)
