type t = { n : int; rows : int array array; cols : int array array }

let build ~n row_lists =
  let rows = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) row_lists in
  let col_lists = Array.make n [] in
  Array.iteri
    (fun i r -> Array.iter (fun j -> col_lists.(j) <- i :: col_lists.(j)) r)
    rows;
  let cols = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) col_lists in
  { n; rows; cols }

let random rng ~n ~q =
  if n <= 0 then invalid_arg "Sparse_matrix.random: n must be positive";
  if q < 0.0 || q > 1.0 then invalid_arg "Sparse_matrix.random: q outside [0,1]";
  let row_lists =
    Array.init n (fun _ ->
        let acc = ref [] in
        for j = 0 to n - 1 do
          if Rng.bernoulli rng q then acc := j :: !acc
        done;
        if !acc = [] then acc := [ Rng.int rng n ];
        !acc)
  in
  build ~n row_lists

let random_symmetric rng ~n ~q =
  if n <= 0 then invalid_arg "Sparse_matrix.random_symmetric: n must be positive";
  if q < 0.0 || q > 1.0 then invalid_arg "Sparse_matrix.random_symmetric: q outside [0,1]";
  let row_lists = Array.init n (fun i -> [ i ]) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* Halve the probability so the symmetrised density stays close to q. *)
      if Rng.bernoulli rng (q /. 2.0) then begin
        row_lists.(i) <- j :: row_lists.(i);
        row_lists.(j) <- i :: row_lists.(j)
      end
    done
  done;
  build ~n row_lists

let of_rows ~n rows =
  if Array.length rows <> n then invalid_arg "Sparse_matrix.of_rows: length mismatch";
  Array.iter
    (List.iter (fun j ->
         if j < 0 || j >= n then invalid_arg "Sparse_matrix.of_rows: column out of range"))
    rows;
  build ~n rows

let n t = t.n
let row t i = t.rows.(i)
let col t j = t.cols.(j)

let mem t i j = Array.exists (fun x -> x = j) t.rows.(i)
