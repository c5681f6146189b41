(* Keys are the explorers' flat [compact_key] arrays, hashed with an
   explicit full-array fold: the polymorphic [Hashtbl.hash] samples
   only ~10 elements, so keys differing past the tenth would share a
   bucket chain (equality stays exact either way, but every such
   lookup would degrade to a scan).  The fold is one FNV
   multiply-xor per element and a single [mix64] at the end.  Each
   multiply-xor is invertible, so two keys of one length that differ
   in one element fold to different words, and the final mix spreads
   that difference over the bucket index bits. *)

include Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec eq i = i >= la || (a.(i) = b.(i) && eq (i + 1)) in
    eq 0

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor Array.unsafe_get a i
    done;
    Slx_sim.Runtime.mix64 !h land max_int
end)
