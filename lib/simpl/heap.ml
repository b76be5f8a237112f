module Ty = Ac_lang.Ty
module Layout = Ac_lang.Layout
module Value = Ac_lang.Value
module Codec = Ac_lang.Codec
module Expr = Ac_lang.Expr
module B = Ac_bignum

(* The byte-level heap with ghost type tags (Tuch's model, paper Sec 4.1-2).

   Memory is a map from addresses to bytes.  The ghost tag map marks an
   address as the *first byte* of an object of some C type; footprint bytes
   are implied by the layout.  [heap_lift] (paper Fig 4) projects this heap
   into a partial typed heap: an address holds a valid object iff it is
   correctly tagged, aligned, non-NULL and does not wrap the address
   space. *)

module BMap = Map.Make (struct
  type t = B.t

  let compare = B.compare
end)

type t = {
  bytes : int BMap.t; (* absent addresses read as 0 *)
  tags : Ty.cty BMap.t; (* object starts *)
}

let empty = { bytes = BMap.empty; tags = BMap.empty }

let read_byte h addr = match BMap.find_opt addr h.bytes with Some b -> b | None -> 0

let write_byte h addr b = { h with bytes = BMap.add addr (b land 0xff) h.bytes }

let write_bytes h addr bs =
  let _, h =
    List.fold_left
      (fun (i, h) b -> (B.succ i, write_byte h i b))
      (addr, h) bs
  in
  h

(* Object-level access, ignoring tags: this is the raw [read]/[write] of the
   concrete model, always defined. *)
let read_obj lenv h (c : Ty.cty) addr : Value.t = Codec.decode lenv c (read_byte h) addr

let write_obj lenv h (_c : Ty.cty) addr (v : Value.t) = write_bytes h addr (Codec.encode lenv v)

let tag_at h addr = BMap.find_opt addr h.tags

(* Retype the object at [addr] to type [c]: clears any tag whose footprint
   overlaps the new object, then tags [addr].  This is the ghost annotation
   emitted at malloc/free-style reuse points (paper Sec 4.2).

   Tags never overlap (every tag is placed by [retype], which clears what it
   would overlap), so the only tag starting below [addr] that can reach into
   the new object is the last one; the others overlapping it start inside
   [addr, addr + size).  A tag at [addr] itself is replaced either way. *)
let retype lenv h (c : Ty.cty) addr =
  let hi = B.add addr (B.of_int (Layout.size_of lenv c)) in
  let tags =
    match BMap.find_last_opt (fun a -> B.lt a addr) h.tags with
    | Some (a, c') when B.lt addr (B.add a (B.of_int (Layout.size_of lenv c'))) ->
      BMap.remove a h.tags
    | _ -> h.tags
  in
  let tags =
    Seq.fold_left
      (fun tags (a, _) -> BMap.remove a tags)
      tags
      (Seq.take_while (fun (a, _) -> B.lt a hi) (BMap.to_seq_from addr tags))
  in
  { h with tags = BMap.add addr c tags }

let untype h addr = { h with tags = BMap.remove addr h.tags }

(* type_tag_valid: the address is tagged as the start of an object of [c]. *)
let type_tag_valid h (c : Ty.cty) addr =
  match tag_at h addr with Some c' -> Ty.cty_equal c c' | None -> false

(* heap_lift (paper Fig 4): Some v iff tagged, aligned and spanning no
   forbidden addresses. *)
let heap_lift lenv h (c : Ty.cty) addr : Value.t option =
  if type_tag_valid h c addr && Expr.aligned lenv c addr && Expr.span_ok lenv c addr then
    Some (read_obj lenv h c addr)
  else None

let lift_valid lenv h c addr = heap_lift lenv h c addr <> None

(* All (address, type) pairs currently tagged: the domain over which the
   abstraction function [st] builds the typed heaps. *)
let tagged_objects h = BMap.bindings h.tags

(* Allocate a fresh tagged object at the next free aligned address; a test
   convenience standing in for malloc. *)
let alloc lenv h (c : Ty.cty) : B.t * t =
  let align = B.of_int (Layout.align_of lenv c) in
  let size = B.of_int (Layout.size_of lenv c) in
  (* The first free address lies above the 0x1000 floor, every tagged
     footprint and every written byte.  Tags do not overlap, so the tag that
     starts highest also ends highest. *)
  let next = B.of_int 0x1000 in
  let next =
    match BMap.max_binding_opt h.tags with
    | Some (a, c') -> B.max next (B.add a (B.of_int (Layout.size_of lenv c')))
    | None -> next
  in
  let next =
    match BMap.max_binding_opt h.bytes with Some (a, _) -> B.max next (B.succ a) | None -> next
  in
  let addr = B.mul (B.fdiv (B.add next (B.pred align)) align) align in
  let h = retype lenv h c addr in
  (* zero-initialise *)
  let h = write_bytes h addr (List.init (B.to_int_exn size) (fun _ -> 0)) in
  (addr, h)

let equal a b = BMap.equal ( = ) a.bytes b.bytes && BMap.equal Ty.cty_equal a.tags b.tags
