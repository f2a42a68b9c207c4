type 'a t = {
  mutable store : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { store = Array.make capacity dummy; len = 0; dummy }

let length v = v.len
let is_empty v = v.len = 0

let ensure v n =
  if n > Array.length v.store then begin
    let cap = ref (Array.length v.store) in
    while !cap < n do
      cap := !cap * 2
    done;
    let store = Array.make !cap v.dummy in
    Array.blit v.store 0 store 0 v.len;
    v.store <- store
  end

let push v x =
  ensure v (v.len + 1);
  v.store.(v.len) <- x;
  v.len <- v.len + 1

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Growvec: index %d out of bounds [0,%d)" i v.len)

let get v i =
  check v i;
  v.store.(i)

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    let x = v.store.(v.len) in
    v.store.(v.len) <- v.dummy;
    Some x
  end

let top v = if v.len = 0 then None else Some v.store.(v.len - 1)

let clear v =
  Array.fill v.store 0 v.len v.dummy;
  v.len <- 0

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.store.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.store.(i)
  done;
  !acc

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.store.(i) :: acc) in
  go (v.len - 1) []

let to_array v = Array.sub v.store 0 v.len

let of_list ~dummy xs =
  let v = create ~capacity:(max 1 (List.length xs)) ~dummy () in
  List.iter (push v) xs;
  v

let map_to_list f v =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (f v.store.(i) :: acc)
  in
  go (v.len - 1) []

let exists p v =
  let rec go i = i < v.len && (p v.store.(i) || go (i + 1)) in
  go 0

let find_opt p v =
  let rec go i =
    if i >= v.len then None
    else if p v.store.(i) then Some v.store.(i)
    else go (i + 1)
  in
  go 0
