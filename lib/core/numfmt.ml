let pow10 =
  let a = Array.make 19 1 in
  for i = 1 to 18 do a.(i) <- 10 * a.(i - 1) done;
  a

(* The number of decimal digits of [n >= 0], counting from [d]. *)
let rec digits n d = if d < 19 && n >= pow10.(d) then digits n (d + 1) else d

(* The [d] lowest decimal digits of [n >= 0], zero-padded. *)
let add_digits buf n d =
  for i = d - 1 downto 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 + (n / pow10.(i) mod 10)))
  done

let spaces = String.make 32 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = Int.min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

(* [n] with its sign, padded to [width] on the left or the right. *)
let add_signed buf ~width ~left n =
  if n = min_int then
    Buffer.add_string buf
      (if left then Printf.sprintf "%-*d" width n else Printf.sprintf "%*d" width n)
  else begin
    let m = abs n in
    let d = digits m 1 in
    let pad = width - d - Bool.to_int (n < 0) in
    if not left then add_spaces buf pad;
    if n < 0 then Buffer.add_char buf '-';
    add_digits buf m d;
    if left then add_spaces buf pad
  end

let add_int buf ~width n = add_signed buf ~width ~left:false n

let add_int_left buf ~width n = add_signed buf ~width ~left:true n

let add_fixed buf ~width ~prec x =
  let scaled = x *. float_of_int pow10.(prec) in
  let whole = Float.of_int (truncate scaled) in
  (* [scaled] is within 6e-8 of the exact product below 1e9, so a
     fraction 1e-6 clear of one half rounds the same either way. *)
  if Float.sign_bit x || not (scaled < 1e9) || Float.abs (scaled -. whole -. 0.5) <= 1e-6
  then Printf.bprintf buf "%*.*f" width prec x
  else begin
    let r = truncate scaled + Bool.to_int (scaled -. whole > 0.5) in
    let int_part = r / pow10.(prec) in
    let d = digits int_part 1 in
    add_spaces buf (width - d - (if prec > 0 then prec + 1 else 0));
    add_digits buf int_part d;
    if prec > 0 then begin
      Buffer.add_char buf '.';
      add_digits buf (r mod pow10.(prec)) prec
    end
  end
