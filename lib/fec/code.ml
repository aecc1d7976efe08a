type t = {
  name : string;
  encode : Bitbuf.t -> Bitbuf.t;
  decode : Bitbuf.t -> data_bits:int -> Bitbuf.t;
  coded_bits : data_bits:int -> int;
  encode_into : (Bitbuf.t -> Bitbuf.t -> unit) option;
  decode_into : (Bitbuf.t -> data_bits:int -> Bitbuf.t -> unit) option;
}

let identity =
  {
    name = "identity";
    encode = (fun b -> Bitbuf.sub b ~pos:0 ~len:(Bitbuf.length b));
    decode = (fun b ~data_bits -> Bitbuf.sub b ~pos:0 ~len:data_bits);
    coded_bits = (fun ~data_bits -> data_bits);
    encode_into =
      Some (fun src dst -> Bitbuf.blit_prefix dst src ~bits:(Bitbuf.length src));
    decode_into =
      Some (fun src ~data_bits dst -> Bitbuf.blit_prefix dst src ~bits:data_bits);
  }

let hamming74 =
  {
    name = "hamming74";
    encode = Hamming.encode;
    decode = Hamming.decode;
    coded_bits = (fun ~data_bits -> Hamming.coded_bits ~data_bits);
    encode_into = None;
    decode_into = None;
  }

let conv cc =
  {
    name = "conv";
    encode = Conv_code.encode cc;
    decode = Conv_code.decode cc;
    coded_bits = (fun ~data_bits -> Conv_code.coded_bits cc ~data_bits);
    encode_into = None;
    decode_into = None;
  }

let conv_default = conv Conv_code.default

let with_interleaver il c =
  let name =
    Printf.sprintf "%s+il%dx%d" c.name (Interleaver.rows il) (Interleaver.cols il)
  in
  let coded_bits ~data_bits =
    let inner = c.coded_bits ~data_bits in
    let block = Interleaver.block_bits il in
    (inner + block - 1) / block * block
  in
  let encode src =
    let coded = c.encode src in
    Interleaver.interleave il (Interleaver.pad_to_block il coded)
  in
  let decode coded ~data_bits =
    let inner_bits = c.coded_bits ~data_bits in
    let deinterleaved = Interleaver.deinterleave il coded in
    c.decode (Bitbuf.sub deinterleaved ~pos:0 ~len:inner_bits) ~data_bits
  in
  { name; encode; decode; coded_bits; encode_into = None; decode_into = None }

let rate t ~data_bits =
  float_of_int data_bits /. float_of_int (t.coded_bits ~data_bits)
