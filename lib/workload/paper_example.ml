open Relational

let pad3 n = Printf.sprintf "%03d" n

(* ------------------------------------------------------------------ *)
(* Schema (§5)                                                          *)
(* ------------------------------------------------------------------ *)

let schema () =
  Schema.of_relations
    [
      Relation.make
        ~domains:
          [
            ("id", Domain.Int); ("name", Domain.String);
            ("street", Domain.String); ("number", Domain.Int);
            ("zip-code", Domain.String); ("state", Domain.String);
          ]
        ~uniques:[ [ "id" ] ] "Person"
        [ "id"; "name"; "street"; "number"; "zip-code"; "state" ];
      Relation.make
        ~domains:
          [ ("no", Domain.Int); ("date", Domain.Date); ("salary", Domain.Int) ]
        ~uniques:[ [ "no"; "date" ] ] "HEmployee" [ "no"; "date"; "salary" ];
      Relation.make
        ~domains:
          [
            ("dep", Domain.String); ("emp", Domain.Int);
            ("skill", Domain.String); ("location", Domain.String);
            ("proj", Domain.String);
          ]
        ~uniques:[ [ "dep" ] ] ~not_nulls:[ "location" ] "Department"
        [ "dep"; "emp"; "skill"; "location"; "proj" ];
      Relation.make
        ~domains:
          [
            ("emp", Domain.Int); ("dep", Domain.String);
            ("proj", Domain.String); ("date", Domain.Date);
            ("project-name", Domain.String);
          ]
        ~uniques:[ [ "emp"; "dep"; "proj" ] ] "Assignment"
        [ "emp"; "dep"; "proj"; "date"; "project-name" ];
    ]

let ddl =
  {|
CREATE TABLE Person (
  id INT PRIMARY KEY,
  name VARCHAR(40),
  street VARCHAR(40),
  number INT,
  zip-code VARCHAR(10),
  state VARCHAR(20)
);
CREATE TABLE HEmployee (
  no INT,
  date DATE,
  salary INT,
  UNIQUE (no, date)
);
CREATE TABLE Department (
  dep VARCHAR(10),
  emp INT,
  skill VARCHAR(20),
  location VARCHAR(20) NOT NULL,
  proj VARCHAR(10),
  PRIMARY KEY (dep)
);
CREATE TABLE Assignment (
  emp INT,
  dep VARCHAR(10),
  proj VARCHAR(10),
  date DATE,
  project-name VARCHAR(40),
  PRIMARY KEY (emp, dep, proj)
);
|}

(* ------------------------------------------------------------------ *)
(* Extension matching the worked counts                                 *)
(* ------------------------------------------------------------------ *)

let n_persons = 2200
let n_employees = 1550
let n_double_dated = 310 (* employees with two salary records *)
let n_departments = 180
let n_managed = 150 (* departments with a (non-null) manager *)
let n_assigned_emps = 800

let database () =
  let db = Database.create (schema ()) in
  (* Person: zip-code -> state holds by construction *)
  for i = 1 to n_persons do
    let zip = i mod 50 in
    Database.insert db "Person"
      [
        Value.Int i;
        Value.String (Printf.sprintf "name-%d" i);
        Value.String (Printf.sprintf "street-%d" (i mod 40));
        Value.Int ((i mod 99) + 1);
        Value.String (Printf.sprintf "z%02d" zip);
        Value.String (Printf.sprintf "state-%d" (zip mod 12));
      ]
  done;
  (* HEmployee: no \in [1, 1550] subseteq Person ids; 310 employees have a
     salary history of two records with different salaries, so
     no -> salary fails *)
  for no = 1 to n_employees do
    let base_salary = 1000 + (no mod 500) in
    Database.insert db "HEmployee"
      [
        Value.Int no;
        Value.date 2020 ((no mod 12) + 1) ((no mod 28) + 1);
        Value.Int base_salary;
      ];
    if no <= n_double_dated then
      Database.insert db "HEmployee"
        [
          Value.Int no;
          Value.date 2021 ((no mod 12) + 1) ((no mod 28) + 1);
          Value.Int (base_salary + 100);
        ]
  done;
  (* Department: deps d001..d180; the first 150 have a manager (emp),
     each manager appearing once so emp -> skill, proj holds; departments
     1 and 2 share project pr001 with different managers/skills, so
     proj -> emp and proj -> skill fail; the last 30 have NULL manager *)
  for i = 1 to n_departments do
    let dep = "d" ^ pad3 i in
    let location = Value.String ("loc-" ^ pad3 i) in
    if i <= n_managed then begin
      let proj =
        if i <= 2 then "pr001" else "pr" ^ pad3 (((i - 3) mod 88) + 2)
      in
      Database.insert db "Department"
        [
          Value.String dep;
          Value.Int i;
          Value.String (Printf.sprintf "sk-%d" i);
          location;
          Value.String proj;
        ]
    end
    else
      Database.insert db "Department"
        [ Value.String dep; Value.Null; Value.Null; location; Value.Null ]
  done;
  (* Assignment: 800 employees with two assignments each; deps span
     d061..d220 (NEI with Department's d001..d180: 120 shared values);
     projects span pr001..pr400 with project-name a function of proj
     (the one FD that must hold); dates vary per row so emp -> date,
     proj -> date and dep -> date all fail *)
  for emp = 1 to n_assigned_emps do
    let dep_a = "d" ^ pad3 (61 + (emp mod 160)) in
    let dep_b = "d" ^ pad3 (61 + ((emp + 40) mod 160)) in
    let proj_a = "pr" ^ pad3 ((emp mod 400) + 1) in
    let proj_b = "pr" ^ pad3 (((emp + 200) mod 400) + 1) in
    let insert dep proj year =
      Database.insert db "Assignment"
        [
          Value.Int emp;
          Value.String dep;
          Value.String proj;
          Value.date year ((emp mod 12) + 1) (((emp * 7) mod 28) + 1);
          Value.String ("Project " ^ proj);
        ]
    in
    insert dep_a proj_a 2021;
    insert dep_b proj_b 2022
  done;
  db

(* ------------------------------------------------------------------ *)
(* The set Q (§5)                                                       *)
(* ------------------------------------------------------------------ *)

let equijoins () =
  [
    Sqlx.Equijoin.make ("HEmployee", [ "no" ]) ("Person", [ "id" ]);
    Sqlx.Equijoin.make ("Department", [ "emp" ]) ("HEmployee", [ "no" ]);
    Sqlx.Equijoin.make ("Assignment", [ "emp" ]) ("HEmployee", [ "no" ]);
    Sqlx.Equijoin.make ("Assignment", [ "dep" ]) ("Department", [ "dep" ]);
    Sqlx.Equijoin.make ("Department", [ "proj" ]) ("Assignment", [ "proj" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Application programs (forms, reports, batch files)                   *)
(* ------------------------------------------------------------------ *)

let programs () =
  [
    (* a COBOL form: employee record lookup *)
    {|
       IDENTIFICATION DIVISION.
       PROGRAM-ID. EMPFORM.
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, salary
             FROM Person, HEmployee
             WHERE HEmployee.no = Person.id AND HEmployee.date = :w-date
           END-EXEC.
           DISPLAY "employee record printed".
|};
    (* a C batch program: departments managed by well-paid employees *)
    {|
#include <stdio.h>
int list_departments(int minsal) {
  EXEC SQL
    SELECT dep, location
    FROM Department, HEmployee
    WHERE Department.emp = HEmployee.no AND HEmployee.salary >= :minsal;
  return 0;
}
|};
    (* a report generator building dynamic SQL *)
    {|
let query =
  "SELECT emp, proj FROM Assignment " +
  "WHERE emp IN (SELECT no FROM HEmployee WHERE salary > 2000)";
run_report(query);
|};
    (* a COBOL batch: assignments located in a given department site *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT *
             FROM Assignment, Department
             WHERE Assignment.dep = Department.dep
               AND Department.location = :w-loc
           END-EXEC.
|};
    (* a consistency report: projects both managed and assigned *)
    {|
check_projects("SELECT proj FROM Department INTERSECT SELECT proj FROM Assignment");
|};
  ]

(* ------------------------------------------------------------------ *)
(* The scripted expert (§5-§7 narrative)                                *)
(* ------------------------------------------------------------------ *)

let oracle_script =
  {
    Dbre.Oracle.nei_choices =
      [
        ( "Assignment[dep] |X| Department[dep]",
          Dbre.Oracle.Conceptualize "Ass-Dept" );
      ];
    fd_rejections = [];
    fd_enforcements = [];
    hidden_accepted = [ "HEmployee.no" ];
    hidden_names =
      [ ("HEmployee.no", "Employee"); ("Assignment.dep", "Other-Dept") ];
    fd_names =
      [
        ("Department: emp -> proj,skill", "Manager");
        ("Assignment: proj -> project-name", "Project");
      ];
  }

let spec () =
  Dbre.Job_spec.of_database ~label:"paper"
    ~oracle:(Dbre.Oracle.Scripted oracle_script) (database ())
    (Dbre.Job_spec.Equijoins (equijoins ()))
