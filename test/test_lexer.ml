open Sqlx

let toks input = Helpers.sql_ok (Lexer.tokenize input)

let tok =
  Alcotest.testable Token.pp Token.equal

let test_keywords_case () =
  Alcotest.(check (list tok)) "case-insensitive keywords"
    [ Token.Kw "SELECT"; Token.Kw "FROM"; Token.Eof ]
    (toks "select FROM")

let test_idents () =
  Alcotest.(check (list tok)) "identifier kept"
    [ Token.Ident "Person"; Token.Punct "."; Token.Ident "id"; Token.Eof ]
    (toks "Person.id");
  Alcotest.(check (list tok)) "hyphenated legacy ident"
    [ Token.Ident "project-name"; Token.Eof ]
    (toks "project-name");
  Alcotest.(check (list tok)) "quoted ident never keyword"
    [ Token.Ident "select"; Token.Eof ]
    (toks "\"select\"")

let test_numbers () =
  Alcotest.(check (list tok)) "int" [ Token.Int 42; Token.Eof ] (toks "42");
  Alcotest.(check (list tok)) "float" [ Token.Float 3.5; Token.Eof ] (toks "3.5");
  Alcotest.(check (list tok)) "negative" [ Token.Int (-7); Token.Eof ] (toks "-7")

let test_strings () =
  Alcotest.(check (list tok)) "simple" [ Token.Str "abc"; Token.Eof ] (toks "'abc'");
  Alcotest.(check (list tok)) "doubled quote"
    [ Token.Str "it's"; Token.Eof ]
    (toks "'it''s'")

let test_operators () =
  Alcotest.(check (list tok)) "all comparison ops"
    [
      Token.Punct "="; Token.Punct "<>"; Token.Punct "!="; Token.Punct "<";
      Token.Punct "<="; Token.Punct ">"; Token.Punct ">="; Token.Eof;
    ]
    (toks "= <> != < <= > >=")

let test_comments () =
  Alcotest.(check (list tok)) "line comment"
    [ Token.Kw "SELECT"; Token.Int 1; Token.Eof ]
    (toks "SELECT -- all\n1");
  Alcotest.(check (list tok)) "block comment"
    [ Token.Kw "SELECT"; Token.Int 1; Token.Eof ]
    (toks "SELECT /* a\nb */ 1")

let test_host_variables () =
  Alcotest.(check (list tok)) "host variable"
    [ Token.Ident ":w-date"; Token.Eof ]
    (toks ":w-date")

let test_minus_vs_ident () =
  Alcotest.(check (list tok)) "spaced minus stays punct"
    [ Token.Ident "a"; Token.Punct "-"; Token.Ident "b"; Token.Eof ]
    (toks "a - b")

let test_errors () =
  let error input = match Lexer.tokenize input with Ok _ -> None | Error m -> Some m in
  Alcotest.(check (option string)) "unterminated string"
    (Some "lexical error at offset 1: unterminated string")
    (error "'never closed");
  Alcotest.(check (option string)) "illegal char"
    (Some "lexical error at offset 2: illegal character '?'")
    (error "a ? b");
  Alcotest.(check (option string)) "integer out of range"
    (Some "lexical error at offset 4: integer literal out of range")
    (error "a = 99999999999999999999")

let suite =
  [
    Alcotest.test_case "keyword case" `Quick test_keywords_case;
    Alcotest.test_case "identifiers" `Quick test_idents;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "host variables" `Quick test_host_variables;
    Alcotest.test_case "minus vs hyphen" `Quick test_minus_vs_ident;
    Alcotest.test_case "errors" `Quick test_errors;
  ]
