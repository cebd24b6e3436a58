#include "workload/edtc.hpp"

#include "events/wire.hpp"
#include "query/query.hpp"

namespace damocles::workload {

using metadb::Oid;

std::string EdtcBlueprintText() {
  // Paper §3.4, with one fix the narrative itself requires: the final
  // listing drops the `move` keyword from the cross-view derive links,
  // but §3.4's prose ("Both links are tagged with the move keyword ...
  // these links are automatically shifted from the old version to the
  // new version") and Fig. 3 make clear they carry across versions —
  // without `move`, checking in <CPU.HDL_model.3> could never invalidate
  // the schematic. README "Paper deviations" records this deviation.
  return R"(# EDTC_example — the complete BluePrint of paper section 3.4
blueprint EDTC_example

view default
  property uptodate default true
  when ckin do uptodate = true; post outofdate down done
  when outofdate do uptodate = false done
endview

view HDL_model
  property sim_result default bad
  when hdl_sim do sim_result = $arg done
endview

view synth_lib
endview

view schematic
  property nl_sim_res default bad
  property lvs_res default not_equiv
  let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
  link_from HDL_model move propagates outofdate type derived
  link_from synth_lib move propagates outofdate type depend_on
  use_link move propagates outofdate
  when nl_sim do nl_sim_res = $arg done
  when ckin do lvs_res = "$oid changed by $user"; post lvs down "$lvs_res" done
  when ckin do exec netlister "$oid" done
endview

view netlist
  property sim_result default bad
  link_from schematic move propagates nl_sim, outofdate type derived
  when nl_sim do sim_result = $arg done
endview

view layout
  property drc_result default bad
  property lvs_result default not_equiv
  let state = ($drc_result == good) and ($lvs_result == is_equiv) and ($uptodate == true)
  link_from schematic move propagates lvs, outofdate type equivalence
  when drc do drc_result = $arg done
  when lvs do lvs_result = $arg done
  when ckin do lvs_result = "$oid changed by $user"; post lvs up "$lvs_result" done
endview

endblueprint
)";
}

std::string EdtcLoosenedBlueprintText() {
  // Early-phase variant: same views and properties, but no link carries
  // the outofdate event, so a check-in never invalidates derived data.
  // The netlister exec-rule is also dropped — no automatic tool runs
  // while the design is churning.
  return R"(# EDTC_example, loosened for the early design phase
blueprint EDTC_example_loose

view default
  property uptodate default true
  when ckin do uptodate = true done
  when outofdate do uptodate = false done
endview

view HDL_model
  property sim_result default bad
  when hdl_sim do sim_result = $arg done
endview

view synth_lib
endview

view schematic
  property nl_sim_res default bad
  property lvs_res default not_equiv
  let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)
  link_from HDL_model move propagates nothing type derived
  link_from synth_lib move propagates nothing type depend_on
  use_link move propagates nothing
  when nl_sim do nl_sim_res = $arg done
endview

view netlist
  property sim_result default bad
  link_from schematic move propagates nl_sim type derived
  when nl_sim do sim_result = $arg done
endview

view layout
  property drc_result default bad
  property lvs_result default not_equiv
  let state = ($drc_result == good) and ($lvs_result == is_equiv) and ($uptodate == true)
  link_from schematic move propagates lvs type equivalence
  when drc do drc_result = $arg done
  when lvs do lvs_result = $arg done
endview

endblueprint
)";
}

namespace {

std::string DescribeUpToDate(const engine::ProjectServer& server) {
  query::ProjectQuery q(server.database());
  const auto stale = q.OutOfDate();
  if (stale.empty()) return "everything up to date";
  std::string text = "out of date:";
  for (const query::Match& match : stale) {
    text += ' ';
    text += metadb::FormatOid(match.oid);
  }
  return text;
}

}  // namespace

std::vector<ScenarioStep> RunEdtcScenario(engine::ProjectServer& server,
                                          tools::ToolScheduler& scheduler) {
  std::vector<ScenarioStep> steps;
  const auto log = [&](std::string what, std::string detail) {
    steps.push_back(ScenarioStep{std::move(what), std::move(detail)});
  };

  tools::HdlEditor editor(server);
  tools::SynthesisTool synthesis(server);

  // 1. "A group of designers starts out by writing an HDL model for
  //    their new design. The top block name is CPU."
  const Oid hdl1 = editor.Edit("CPU", "cpu model draft (race in decoder)",
                               "alice");
  log("create " + metadb::FormatOid(hdl1), DescribeUpToDate(server));

  // 2. "They then simulate the model and get a negative result."
  server.AdvanceClock(3600);
  server.SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 \"4 errors\"",
                        "alice");
  log("hdl_sim on v1: \"4 errors\"",
      "sim_result = " +
          *server.database().GetProperty(
              *server.database().FindObject(hdl1), "sim_result"));

  // 3. "The designers then modify their model and save it as a new
  //    version <CPU.HDL_model.2> ... and this time get a good result."
  server.AdvanceClock(7200);
  const Oid hdl2 = editor.Edit("CPU", "cpu model, decoder fixed", "alice");
  server.SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,2 \"good\"",
                        "alice");
  log("create " + metadb::FormatOid(hdl2) + ", hdl_sim: good",
      "sim_result = " +
          *server.database().GetProperty(
              *server.database().FindObject(hdl2), "sim_result"));

  // 4. "They then synthesize the design from their model. This creates
  //    OIDs <CPU.schematic.1> and <REG.schematic.1>." The netlister
  //    exec-rule fires on the schematic check-ins automatically.
  server.AdvanceClock(1800);
  const auto top = synthesis.Synthesize("CPU", {"REG"}, "bob");
  log("synthesize CPU -> schematic hierarchy",
      top.has_value()
          ? metadb::FormatOid(*top) + " created; netlister ran " +
                std::to_string(scheduler.automatic_runs()) + " time(s)"
          : "synthesis denied");

  // 5. "Now the designers ... modify their HDL model thereby creating a
  //    new OID <CPU.HDL_model.3>." The ckin event posts outofdate down;
  //    the schematic, its hierarchy and the netlist become out of date.
  server.AdvanceClock(3600);
  const Oid hdl3 = editor.Edit("CPU", "cpu model, wider ALU", "alice");
  log("create " + metadb::FormatOid(hdl3) + " (ckin posts outofdate down)",
      DescribeUpToDate(server));

  return steps;
}

}  // namespace damocles::workload
