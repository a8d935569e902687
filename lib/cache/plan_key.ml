(* Cache keys for factorization plans.

   A plan is reusable bit-for-bit only against the exact pattern AND
   the exact representative values it was analyzed on (threshold
   pivoting reads the values), so the key digests both: the CSR
   structure as integers and the values as raw IEEE-754 bits.  Two
   lookups collide only when a fresh Splu/Csplu.plan call would have
   produced the identical plan anyway — which is what makes the plan
   cache invisible in the results (docs/serving.md). *)

let add_int b n = Buffer.add_int64_be b (Int64.of_int n)
let add_float b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_pattern b (pat : Csr.t) =
  add_int b (Csr.rows pat);
  Array.iter (add_int b) pat.Csr.rp;
  Array.iter (add_int b) pat.Csr.ci

let reals ~tag (pat : Csr.t) (vals : float array) =
  let b = Buffer.create 1024 in
  Buffer.add_string b tag;
  add_pattern b pat;
  Array.iter (add_float b) vals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let complexes ~tag (pat : Csr.t) (vals : Cx.t array) =
  let b = Buffer.create 1024 in
  Buffer.add_string b tag;
  add_pattern b pat;
  Array.iter
    (fun (z : Cx.t) ->
      add_float b z.Cx.re;
      add_float b z.Cx.im)
    vals;
  Digest.to_hex (Digest.string (Buffer.contents b))
