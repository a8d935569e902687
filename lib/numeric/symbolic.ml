type ordering = Natural | Rcm

type t = { n : int; q : int array }

let identity n = { n; q = Array.init n (fun i -> i) }

(* adjacency of |A| + |Aᵀ| without self-loops, as (xadj, adjncy) *)
let symmetrized_adjacency (pat : Csr.t) =
  let n = Csr.rows pat in
  let deg = Array.make n 0 in
  let count i j =
    if i <> j then begin
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1
    end
  in
  for i = 0 to n - 1 do
    for p = pat.Csr.rp.(i) to pat.Csr.rp.(i + 1) - 1 do
      count i pat.Csr.ci.(p)
    done
  done;
  let xadj = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    xadj.(i + 1) <- xadj.(i) + deg.(i)
  done;
  let next = Array.copy xadj in
  let adjncy = Array.make (Stdlib.max xadj.(n) 1) 0 in
  let push i j =
    adjncy.(next.(i)) <- j;
    next.(i) <- next.(i) + 1
  in
  for i = 0 to n - 1 do
    for p = pat.Csr.rp.(i) to pat.Csr.rp.(i + 1) - 1 do
      let j = pat.Csr.ci.(p) in
      if i <> j then begin
        push i j;
        push j i
      end
    done
  done;
  (* dedup each vertex's sorted neighbor list (A and Aᵀ overlap) *)
  let xadj' = Array.make (n + 1) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    xadj'.(i) <- !w;
    let lo = xadj.(i) and hi = next.(i) in
    let seg = Array.sub adjncy lo (hi - lo) in
    Array.sort compare seg;
    Array.iteri
      (fun k j ->
        if k = 0 || seg.(k - 1) <> j then begin
          adjncy.(!w) <- j;
          incr w
        end)
      seg
  done;
  xadj'.(n) <- !w;
  (xadj', adjncy)

let rcm pat =
  let n = Csr.rows pat in
  let xadj, adjncy = symmetrized_adjacency pat in
  let degree i = xadj.(i + 1) - xadj.(i) in
  let order = Array.make n 0 in
  let visited = Array.make n false in
  let pos = ref 0 in
  let queue = Queue.create () in
  let by_degree lo hi =
    let seg = Array.sub adjncy lo (hi - lo) in
    Array.sort (fun a b -> compare (degree a, a) (degree b, b)) seg;
    seg
  in
  (* BFS one component from [root] in Cuthill–McKee order *)
  let bfs root =
    visited.(root) <- true;
    Queue.push root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      order.(!pos) <- u;
      incr pos;
      Array.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            Queue.push v queue
          end)
        (by_degree xadj.(u) xadj.(u + 1))
    done
  in
  (* a few BFS sweeps toward a pseudo-peripheral root of [seed]'s
     component: restart from a farthest minimum-degree vertex while the
     eccentricity keeps growing *)
  let pseudo_peripheral seed =
    let dist = Array.make n (-1) in
    let far = ref seed and ecc = ref (-1) and improved = ref true in
    while !improved do
      improved := false;
      let root = !far in
      Array.fill dist 0 n (-1);
      dist.(root) <- 0;
      Queue.push root queue;
      let last_level = ref [ root ] and cur_ecc = ref 0 in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        if dist.(u) > !cur_ecc then begin
          cur_ecc := dist.(u);
          last_level := [ u ]
        end
        else if dist.(u) = !cur_ecc && dist.(u) > 0 then
          last_level := u :: !last_level;
        for p = xadj.(u) to xadj.(u + 1) - 1 do
          let v = adjncy.(p) in
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v queue
          end
        done
      done;
      if !cur_ecc > !ecc then begin
        ecc := !cur_ecc;
        far :=
          List.fold_left
            (fun best u -> if degree u < degree best then u else best)
            (List.hd !last_level) !last_level;
        improved := !cur_ecc > 0
      end
    done;
    !far
  in
  for seed = 0 to n - 1 do
    if not visited.(seed) then bfs (pseudo_peripheral seed)
  done;
  (* reverse Cuthill–McKee *)
  let q = Array.make n 0 in
  for k = 0 to n - 1 do
    q.(k) <- order.(n - 1 - k)
  done;
  { n; q }

let analyze ?(ordering = Rcm) pat =
  if Csr.rows pat <> Csr.cols pat then invalid_arg "Symbolic.analyze";
  (* every plan, real or complex, that does not reuse an earlier
     analysis passes through here exactly once, so this counter is the
     ground truth the plan-cache tests assert against: a warm cache
     shows fewer symbolic.plan increments than analyses *)
  Obs.count "symbolic.plan" 1;
  match ordering with
  | Natural -> identity (Csr.rows pat)
  | Rcm -> rcm pat
