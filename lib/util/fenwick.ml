type t = { tree : int array }

let create n =
  if n < 0 then invalid_arg "Fenwick.create: negative size";
  { tree = Array.make (n + 1) 0 }

let size t = Array.length t.tree - 1

(* Node i covers (i - lowbit i, i], so its sum over the leading ones is
   the overlap of that range with (0, k]. *)
let reset_ones t k =
  let n = size t in
  if k < 0 || k > n then invalid_arg "Fenwick.reset_ones: count out of range";
  for i = 1 to n do
    t.tree.(i) <- max 0 (min i k - (i - (i land -i)))
  done

let add t i delta =
  if i < 0 || i >= size t then invalid_arg "Fenwick.add: index out of range";
  let i = ref (i + 1) in
  let n = Array.length t.tree in
  while !i < n do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let prefix_sum t i =
  let i = min i (size t - 1) in
  if i < 0 then 0
  else begin
    let acc = ref 0 in
    let i = ref (i + 1) in
    while !i > 0 do
      acc := !acc + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !acc
  end

let range_sum t ~lo ~hi =
  if hi < lo then 0 else prefix_sum t hi - prefix_sum t (lo - 1)

let total t = prefix_sum t (size t - 1)
