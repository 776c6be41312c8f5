open Relational

type t = {
  name : string;
  description : string;
  database : unit -> Database.t;
  programs : string list;
  oracle : Dbre.Oracle.mode;
}

let spec s =
  Dbre.Job_spec.of_database ~label:s.name ~oracle:s.oracle (s.database ())
    (Dbre.Job_spec.Programs s.programs)

(* ------------------------------------------------------------------ *)
(* The paper's running example                                          *)
(* ------------------------------------------------------------------ *)

let paper =
  {
    name = "paper";
    description =
      "The ICDE'96 running example: Person / HEmployee / Department / \
       Assignment (section 5).";
    database = Paper_example.database;
    programs = Paper_example.programs ();
    oracle = Dbre.Oracle.Scripted Paper_example.oracle_script;
  }

(* ------------------------------------------------------------------ *)
(* Legacy payroll                                                       *)
(* ------------------------------------------------------------------ *)

let pad2 n = Printf.sprintf "%02d" n
let pad3 n = Printf.sprintf "%03d" n

let payroll_schema () =
  Schema.of_relations
    [
      Relation.make
        ~domains:
          [
            ("ssn", Domain.Int); ("name", Domain.String);
            ("grade", Domain.String); ("grade_label", Domain.String);
            ("dept_code", Domain.String); ("dept_name", Domain.String);
            ("site", Domain.String);
          ]
        ~uniques:[ [ "ssn" ] ] ~not_nulls:[ "name" ] "Staff"
        [ "ssn"; "name"; "grade"; "grade_label"; "dept_code"; "dept_name"; "site" ];
      Relation.make
        ~domains:
          [
            ("ssn", Domain.Int); ("period", Domain.String);
            ("gross", Domain.Int); ("tax_code", Domain.String);
            ("tax_rate", Domain.Int);
          ]
        ~uniques:[ [ "ssn"; "period" ] ] "Payslip"
        [ "ssn"; "period"; "gross"; "tax_code"; "tax_rate" ];
      Relation.make
        ~domains:
          [
            ("ssn", Domain.Int); ("week", Domain.Int);
            ("hours", Domain.Int); ("project_code", Domain.String);
            ("project_title", Domain.String);
          ]
        ~uniques:[ [ "ssn"; "week"; "project_code" ] ] "Timesheet"
        [ "ssn"; "week"; "hours"; "project_code"; "project_title" ];
      Relation.make
        ~domains:
          [
            ("grant_no", Domain.Int); ("project_code", Domain.String);
            ("sponsor", Domain.String);
          ]
        ~uniques:[ [ "grant_no" ] ] "Grants"
        [ "grant_no"; "project_code"; "sponsor" ];
      Relation.make
        ~domains:
          [
            ("dept_code", Domain.String); ("year", Domain.Int);
            ("amount", Domain.Int);
          ]
        ~uniques:[ [ "dept_code"; "year" ] ] "Budget"
        [ "dept_code"; "year"; "amount" ];
    ]

let tax_rates = [| 10; 15; 20; 25; 30 |]

let payroll_database () =
  let db = Database.create (payroll_schema ()) in
  (* Staff 1000..1399: grade -> grade_label and dept_code -> dept_name,
     site hold by construction *)
  for ssn = 1000 to 1399 do
    let grade = 1 + (ssn mod 8) in
    let dept = 1 + (ssn mod 12) in
    Database.insert db "Staff"
      [
        Value.Int ssn;
        Value.String (Printf.sprintf "staff-%d" ssn);
        Value.String (Printf.sprintf "g%d" grade);
        Value.String (Printf.sprintf "Grade %d" grade);
        Value.String ("dc" ^ pad2 dept);
        Value.String (Printf.sprintf "Dept %s" (pad2 dept));
        Value.String (Printf.sprintf "site-%d" (dept mod 3));
      ]
  done;
  (* Payslip: 12 monthly slips for ssn 1000..1379 (a proper subset of
     staff); tax_code -> tax_rate holds, everything else varies *)
  for ssn = 1000 to 1379 do
    for month = 1 to 12 do
      let code = 1 + ((ssn + month) mod 5) in
      Database.insert db "Payslip"
        [
          Value.Int ssn;
          Value.String (Printf.sprintf "2025-%02d" month);
          Value.Int (2000 + (ssn mod 700) + (month * 3));
          Value.String (Printf.sprintf "t%d" code);
          Value.Int tax_rates.(code - 1);
        ]
    done
  done;
  (* Timesheet: ssn 1000..1299, 4 weeks, one project per week;
     project_code -> project_title holds *)
  for ssn = 1000 to 1299 do
    for week = 1 to 4 do
      let code = 1 + (((ssn * 4) + week) mod 40) in
      Database.insert db "Timesheet"
        [
          Value.Int ssn;
          Value.Int week;
          Value.Int (30 + ((ssn + week) mod 15));
          Value.String ("pc" ^ pad3 code);
          Value.String (Printf.sprintf "Project pc%s" (pad3 code));
        ]
    done
  done;
  (* Grants: project codes pc030..pc054 — a proper overlap with the
     timesheets' pc001..pc040 (the NEI the expert conceptualizes) *)
  for g = 1 to 25 do
    Database.insert db "Grants"
      [
        Value.Int g;
        Value.String ("pc" ^ pad3 (29 + g));
        Value.String (Printf.sprintf "sponsor-%d" (g mod 7));
      ]
  done;
  (* Budget: one row per department and year *)
  for dept = 1 to 12 do
    for year = 2023 to 2025 do
      Database.insert db "Budget"
        [
          Value.String ("dc" ^ pad2 dept);
          Value.Int year;
          Value.Int ((dept * 10000) + ((year - 2020) * 137));
        ]
    done
  done;
  db

let payroll_programs =
  [
    (* monthly payslip report: Payslip.ssn = Staff.ssn *)
    {|
       IDENTIFICATION DIVISION.
       PROGRAM-ID. PAYREP.
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, gross
             FROM Staff, Payslip
             WHERE Payslip.ssn = Staff.ssn AND Payslip.period = :w-period
           END-EXEC.
|};
    (* overtime check: nested IN over timesheets *)
    {|
let overtime =
  "SELECT name FROM Staff " +
  "WHERE ssn IN (SELECT ssn FROM Timesheet WHERE hours > 35)";
run(overtime);
|};
    (* sponsored projects: Grants/Timesheet navigation (an NEI!) *)
    {|
#include <stdio.h>
void sponsored(void) {
  EXEC SQL
    SELECT project_title, sponsor
    FROM Timesheet, Grants
    WHERE Grants.project_code = Timesheet.project_code;
}
|};
    (* departmental budget screen: Staff/Budget navigation *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT s.name, b.amount
             FROM Staff s, Budget b
             WHERE s.dept_code = b.dept_code AND b.year = :w-year
           END-EXEC.
|};
    (* tax audit: self-join on tax codes *)
    {|
audit("SELECT p1.ssn, p2.ssn FROM Payslip p1, Payslip p2 " +
      "WHERE p1.tax_code = p2.tax_code AND p1.gross < p2.gross");
|};
    (* a COBOL cursor over payslips joined to staff *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL DECLARE PAYCUR CURSOR FOR
             SELECT s.name, p.gross
             FROM Staff s, Payslip p
             WHERE p.ssn = s.ssn
             ORDER BY p.gross DESC
           END-EXEC.
|};
    (* a query that navigates nothing (grade lookups stay local) *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, grade_label FROM Staff WHERE grade = :w-grade
           END-EXEC.
|};
  ]

let payroll_oracle =
  Dbre.Oracle.Scripted
    {
      Dbre.Oracle.nei_choices =
        [
          ( "Grants[project_code] |X| Timesheet[project_code]",
            Dbre.Oracle.Conceptualize "Sponsored-Active-Project" );
        ];
      fd_rejections = [];
      fd_enforcements = [];
      hidden_accepted = [ "Payslip.ssn"; "Timesheet.ssn" ];
      hidden_names =
        [ ("Payslip.ssn", "Paid-Staff"); ("Timesheet.ssn", "Active-Staff") ];
      fd_names =
        [
          ("Payslip: tax_code -> tax_rate", "Tax-Band");
          ("Timesheet: project_code -> project_title", "Project");
          ("Staff: dept_code -> dept_name,site", "Department");
          ("Grants: project_code -> sponsor", "Sponsorship");
        ];
    }

let payroll =
  {
    name = "payroll";
    description =
      "A denormalized legacy payroll system (Staff / Payslip / Timesheet / \
       Grants / Budget) with hidden objects behind composite keys, a \
       self-join-revealed tax-band dependency, and an NEI between grants \
       and timesheets.";
    database = payroll_database;
    programs = payroll_programs;
    oracle = payroll_oracle;
  }

(* ------------------------------------------------------------------ *)
(* Hospital admissions                                                  *)
(* ------------------------------------------------------------------ *)

let hospital_schema () =
  Schema.of_relations
    [
      Relation.make
        ~domains:
          [
            ("hosp_code", Domain.String); ("pat_no", Domain.Int);
            ("name", Domain.String); ("born", Domain.Int);
          ]
        ~uniques:[ [ "hosp_code"; "pat_no" ] ] "Patient"
        [ "hosp_code"; "pat_no"; "name"; "born" ];
      Relation.make
        ~domains:
          [
            ("hosp_code", Domain.String); ("pat_no", Domain.Int);
            ("adm_date", Domain.Date); ("ward", Domain.String);
            ("bed", Domain.Int);
          ]
        ~uniques:[ [ "hosp_code"; "pat_no"; "adm_date" ] ] "Admission"
        [ "hosp_code"; "pat_no"; "adm_date"; "ward"; "bed" ];
      Relation.make
        ~domains:
          [
            ("hosp_code", Domain.String); ("pat_no", Domain.Int);
            ("adm_date", Domain.Date); ("drug_code", Domain.String);
            ("drug_name", Domain.String); ("dose", Domain.Int);
          ]
        ~uniques:[ [ "hosp_code"; "pat_no"; "adm_date"; "drug_code" ] ]
        "Treatment"
        [ "hosp_code"; "pat_no"; "adm_date"; "drug_code"; "drug_name"; "dose" ];
      Relation.make
        ~domains:
          [ ("drug_code", Domain.String); ("supplier", Domain.String) ]
        ~uniques:[ [ "drug_code" ] ] "Formulary" [ "drug_code"; "supplier" ];
      Relation.make
        ~domains:
          [
            ("emp_id", Domain.Int); ("name", Domain.String);
            ("ward_code", Domain.String); ("ward_name", Domain.String);
          ]
        ~uniques:[ [ "emp_id" ] ] "Staff"
        [ "emp_id"; "name"; "ward_code"; "ward_name" ];
    ]

let hospital_database () =
  let db = Database.create (hospital_schema ()) in
  (* 3 hospitals x 100 patients, identified by the composite
     (hosp_code, pat_no) *)
  for h = 1 to 3 do
    let hosp = Printf.sprintf "H%d" h in
    for p = 1 to 100 do
      Database.insert db "Patient"
        [
          Value.String hosp;
          Value.Int p;
          Value.String (Printf.sprintf "patient-%s-%d" hosp p);
          Value.Int (1940 + ((p * h) mod 60));
        ];
      (* two admissions each for the first 90 patients of each hospital
         (a proper subset, so the IND has a single direction); wards
         W0..W5 (a subset of Staff's W0..W7) and beds vary per visit so
         no spurious (hosp_code, pat_no) -> ward dependency holds *)
      if p <= 90 then
      for visit = 1 to 2 do
        let adm = Value.date (2023 + visit) (((p + h) mod 12) + 1) ((p mod 28) + 1) in
        Database.insert db "Admission"
          [
            Value.String hosp;
            Value.Int p;
            adm;
            Value.String (Printf.sprintf "W%d" ((p + visit) mod 6));
            Value.Int (((p * visit) mod 20) + 1);
          ];
        (* two treatments per admission; drug codes d011..d045 overlap the
           formulary's d001..d030 only partially (the forced NEI) *)
        for t = 0 to 1 do
          let code = 11 + (((p * 2) + visit + t) mod 35) in
          Database.insert db "Treatment"
            [
              Value.String hosp;
              Value.Int p;
              adm;
              Value.String (Printf.sprintf "d%03d" code);
              Value.String (Printf.sprintf "Drug d%03d" code);
              Value.Int (((p + t) mod 4) + 1);
            ]
        done
      done
    done
  done;
  for d = 1 to 30 do
    Database.insert db "Formulary"
      [
        Value.String (Printf.sprintf "d%03d" d);
        Value.String (Printf.sprintf "supplier-%d" (d mod 5));
      ]
  done;
  (* staff with ward_code -> ward_name embedded *)
  for e = 1 to 40 do
    let w = e mod 8 in
    Database.insert db "Staff"
      [
        Value.Int (1000 + e);
        Value.String (Printf.sprintf "staff-%d" e);
        Value.String (Printf.sprintf "W%d" w);
        Value.String (Printf.sprintf "Ward W%d" w);
      ]
  done;
  db

let hospital_programs =
  [
    (* patient record screen: composite-key navigation *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, ward
             FROM Patient p, Admission a
             WHERE a.hosp_code = p.hosp_code AND a.pat_no = p.pat_no
               AND a.adm_date = :w-date
           END-EXEC.
|};
    (* treatment sheet: three-attribute navigation to the admission *)
    {|
#include <stdio.h>
void treatment_sheet(void) {
  EXEC SQL
    SELECT drug_name, dose
    FROM Treatment t, Admission a
    WHERE t.hosp_code = a.hosp_code AND t.pat_no = a.pat_no
      AND t.adm_date = a.adm_date;
}
|};
    (* ward staffing: Admission.ward vs Staff.ward_code *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT s.name
             FROM Admission a, Staff s
             WHERE a.ward = s.ward_code AND a.bed = :w-bed
           END-EXEC.
|};
    (* formulary check: dynamic SQL with a nested IN (the NEI) *)
    {|
check("SELECT drug_name FROM Treatment " +
      "WHERE drug_code IN (SELECT drug_code FROM Formulary WHERE supplier = 'supplier-1')");
|};
    (* a local lookup that navigates nothing *)
    {|
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, born FROM Patient WHERE pat_no = :w-no
           END-EXEC.
|};
  ]

let hospital_oracle =
  Dbre.Oracle.Scripted
    {
      Dbre.Oracle.nei_choices =
        [
          (* trust the formulary catalog despite legacy drug codes:
             force Treatment[drug_code] << Formulary[drug_code] *)
          ( "Formulary[drug_code] |X| Treatment[drug_code]",
            Dbre.Oracle.Force_right_in_left );
        ];
      fd_rejections = [];
      fd_enforcements = [];
      hidden_accepted = [];
      hidden_names = [];
      fd_names =
        [
          ("Staff: ward_code -> ward_name", "Ward");
          ("Treatment: drug_code -> drug_name", "Drug");
        ];
    }

let hospital =
  {
    name = "hospital";
    description =
      "A hospital admissions system with composite patient identifiers \
       (hosp_code, pat_no): multi-attribute inclusion dependencies, a \
       treatment relation that the method turns into an Admission-Drug \
       relationship type, a forced NEI against the drug formulary, and \
       two ward navigations converging on the same hidden Ward object.";
    database = hospital_database;
    programs = hospital_programs;
    oracle = hospital_oracle;
  }

(* ------------------------------------------------------------------ *)

let synthetic spec =
  let generated = Gen_schema.generate spec in
  {
    name = Printf.sprintf "synthetic-%Ld" spec.Gen_schema.seed;
    description = "Generated denormalized workload with planted ground truth.";
    database =
      (fun () -> (Gen_schema.generate spec).Gen_schema.db);
    programs = generated.Gen_schema.programs;
    oracle = Dbre.Oracle.Auto;
  }

let all = [ paper; payroll; hospital ]
let find name = List.find_opt (fun s -> String.equal s.name name) all
