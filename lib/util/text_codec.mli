(** The line-oriented text codec shared by the hyperDAG, schedule and
    request formats (DESIGN.md Section 5k).

    All three formats are sequences of lines of whitespace-separated
    tokens, where blank lines and lines whose first non-blank byte is
    [%] are ignored. A {!scanner} walks such text in place: it never
    splits the input into line or token strings, and reading an
    integer allocates nothing unless the token is not plain decimal.

    Whitespace, one set for every format:
    - a line ends at ['\n'];
    - a line is trimmed at both ends of [' '], ['\t'], ['\r'] and
      ['\012'] (the set [String.trim] strips), so CRLF endings are
      harmless;
    - tokens inside a line are separated by runs of [' '], ['\t'] and
      ['\r'].

    The writer side is {!add_int}, which appends the decimal digits of
    an integer to a buffer without building a string, and the line
    writers built on it. *)

type scanner

val scanner : ?pos:int -> ?stop:int -> string -> scanner
(** A scanner over the bytes [\[pos, stop)] of the string ([pos]
    defaults to 0, [stop] to its length), placed before its first line.
    The text ends at [stop] as if the string did: no byte from [stop]
    on is read, so a caller can scan a frame held in the front of a
    larger reused buffer. *)

val next_line : scanner -> bool
(** Advance to the next significant (non-blank, non-comment) line.
    [false] at the end of the text. *)

val count_lines : ?marker:string -> scanner -> int * bool
(** The number of significant lines after the current one, and whether
    some comment line anywhere in the text after the cursor (trimmed)
    starts with [marker]. The scanner does not move; the count comes
    before anything is parsed, so callers can check declared counts
    against it before sizing an array. *)

val next_ints : scanner -> what:string -> int array -> int
(** Advance to the next significant line, parse every token of it as an
    integer, store the first [Array.length buf] of them in [buf], and
    return the number of tokens; [-1] at the end of the text. Tokens
    are parsed as [int_of_string] does (signs, [0x] prefixes and [_]
    separators included); a token that does not parse raises
    [Failure (what ^ ": not an integer: " ^ token)]. A line made only of
    digits, ['-'] and spaces is located and parsed in the same pass;
    any other line is trimmed first, as {!next_line} does. *)

val line_words : scanner -> string list
(** The tokens of the current line as strings. *)

val line : scanner -> string
(** The current line, trimmed. *)

val position : scanner -> int
(** The byte offset just past the current line and its ['\n'] (at most
    the scanner's [stop]). *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal form of an integer, exactly as [string_of_int]
    prints it. *)

val add_ints2 : Buffer.t -> eol:string -> int -> int -> unit
(** [add_ints2 buf ~eol a b] appends the line ["a b"] ended by [eol]. *)

val add_ints3 : Buffer.t -> eol:string -> int -> int -> int -> unit
(** [add_ints3 buf ~eol a b c] appends the line ["a b c"] ended by
    [eol]. Files end lines with ["\n"]; a writer that embeds the text
    in a JSON string passes the escaped form. *)
