#include "msoc/soc/itc02.hpp"

#include <sstream>
#include <utility>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/strings.hpp"

namespace msoc::soc {

namespace {

class Parser {
 public:
  Parser(std::istream& in, std::string source) : in_(in),
                                                 source_(std::move(source)) {}

  Soc run() {
    Soc soc;
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_;
      const std::string_view line = strip_comment(raw);
      const std::vector<std::string_view> tok = split_fields(line);
      if (tok.empty()) continue;
      dispatch(soc, tok);
    }
    finish_pending(soc);
    return soc;
  }

 private:
  static std::string_view strip_comment(std::string_view line) {
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    return trim(line);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(source_, line_, message);
  }

  long long expect_int(std::string_view field, const char* what) const {
    const auto v = parse_int(field);
    if (!v) fail(std::string("expected integer for ") + what + ", got '" +
                 std::string(field) + "'");
    return *v;
  }

  /// expect_int narrowed to T: a value T cannot hold fails at its own
  /// line instead of wrapping (a negative Cycles once became 2^64 - 5).
  template <typename T>
  T expect_narrow(std::string_view field, const char* what) const {
    const long long v = expect_int(field, what);
    if (!std::in_range<T>(v)) {
      fail(std::string(what) + " out of range, got '" + std::string(field) +
           "'");
    }
    return static_cast<T>(v);
  }

  double expect_double(std::string_view field, const char* what) const {
    const auto v = parse_double(field);
    if (!v) fail(std::string("expected number for ") + what + ", got '" +
                 std::string(field) + "'");
    return *v;
  }

  void dispatch(Soc& soc, const std::vector<std::string_view>& tok) {
    const std::string key = to_lower(tok[0]);
    if (key == "socname") {
      if (tok.size() != 2) fail("SocName takes exactly one value");
      soc.set_name(std::string(tok[1]));
    } else if (key == "maxpower") {
      if (tok.size() != 2) fail("MaxPower takes exactly one value");
      if (have_max_power_) fail("duplicate MaxPower");
      const double budget = expect_double(tok[1], "MaxPower");
      if (budget < 0.0) fail("MaxPower must be non-negative");
      soc.set_max_power(budget);
      have_max_power_ = true;
    } else if (key == "powerwindow") {
      if (tok.size() != 3) {
        fail("PowerWindow takes a window length and a limit");
      }
      if (have_power_window_) fail("duplicate PowerWindow");
      const long long cycles = expect_int(tok[1], "PowerWindow cycles");
      if (cycles <= 0) fail("PowerWindow cycles must be positive");
      const double limit = expect_double(tok[2], "PowerWindow limit");
      if (!(limit > 0.0)) fail("PowerWindow limit must be positive");
      soc.set_power_window({static_cast<Cycles>(cycles), limit});
      have_power_window_ = true;
    } else if (key == "module") {
      finish_pending(soc);
      module_line_ = line_;
      if (tok.size() < 2) fail("Module needs an id");
      digital_ = DigitalCore{};
      digital_->id = expect_narrow<int>(tok[1], "module id");
      digital_->name = tok.size() >= 3 ? std::string(tok[2])
                                       : "module_" + std::string(tok[1]);
      in_digital_ = true;
    } else if (key == "analogmodule") {
      finish_pending(soc);
      module_line_ = line_;
      if (tok.size() < 2) fail("AnalogModule needs a name");
      analog_ = AnalogCore{};
      analog_->name = std::string(tok[1]);
      // Remaining tokens form the free-text description.
      std::string desc;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (!desc.empty()) desc += ' ';
        desc += std::string(tok[i]);
      }
      // Strip optional surrounding quotes.
      if (desc.size() >= 2 && desc.front() == '"' && desc.back() == '"') {
        desc = desc.substr(1, desc.size() - 2);
      }
      analog_->description = desc;
      in_digital_ = false;
    } else if (key == "inputs") {
      digital_field(tok, &DigitalCore::inputs);
    } else if (key == "outputs") {
      digital_field(tok, &DigitalCore::outputs);
    } else if (key == "bidirs") {
      digital_field(tok, &DigitalCore::bidirs);
    } else if (key == "patterns") {
      if (!digital_) fail("Patterns outside a Module section");
      if (tok.size() != 2) fail("Patterns takes exactly one value");
      digital_->patterns = expect_int(tok[1], "patterns");
      if (digital_->patterns <= 0) fail("Patterns must be positive");
    } else if (key == "power") {
      if (!digital_ || !in_digital_) fail("Power outside a Module section");
      if (tok.size() != 2) fail("Power takes exactly one value");
      const double power = expect_double(tok[1], "Power");
      if (power < 0.0) fail("Power must be non-negative");
      digital_->power = power;
    } else if (key == "scanchains") {
      if (!digital_) fail("ScanChains outside a Module section");
      digital_->scan_chain_lengths.clear();
      for (std::size_t i = 1; i < tok.size(); ++i) {
        digital_->scan_chain_lengths.push_back(
            expect_narrow<int>(tok[i], "scan chain length"));
      }
    } else if (key == "test") {
      parse_test(tok);
    } else {
      fail("unknown keyword '" + std::string(tok[0]) + "'");
    }
  }

  void digital_field(const std::vector<std::string_view>& tok,
                     int DigitalCore::* member) {
    if (!digital_) fail("digital field outside a Module section");
    if (tok.size() != 2) fail("field takes exactly one value");
    (*digital_).*member = expect_narrow<int>(tok[1], "field");
  }

  void parse_test(const std::vector<std::string_view>& tok) {
    if (!analog_ || in_digital_) {
      fail("Test outside an AnalogModule section");
    }
    if (tok.size() < 2) fail("Test needs a name");
    AnalogTestSpec t;
    t.name = std::string(tok[1]);
    // Remaining tokens are key/value pairs.
    if ((tok.size() - 2) % 2 != 0) fail("Test key without value");
    for (std::size_t i = 2; i + 1 < tok.size(); i += 2) {
      const std::string k = to_lower(tok[i]);
      const std::string_view v = tok[i + 1];
      if (k == "flow") t.f_low = Hertz(expect_double(v, "FLow"));
      else if (k == "fhigh") t.f_high = Hertz(expect_double(v, "FHigh"));
      else if (k == "fsample") t.f_sample = Hertz(expect_double(v, "FSample"));
      else if (k == "cycles") {
        t.cycles = expect_narrow<Cycles>(v, "Cycles");
      } else if (k == "width") {
        t.tam_width = expect_narrow<int>(v, "Width");
      } else if (k == "resolution") {
        t.resolution_bits = expect_narrow<int>(v, "Resolution");
      } else if (k == "power") {
        t.power = expect_double(v, "Power");
        if (t.power < 0.0) fail("Power must be non-negative");
      } else {
        fail("unknown test attribute '" + k + "'");
      }
    }
    analog_->tests.push_back(std::move(t));
  }

  /// Adds the pending module, which validates it.  Validation runs only
  /// once the module is complete (at the next module header or at EOF),
  /// so its errors name the module's own header line.
  void finish_pending(Soc& soc) {
    try {
      if (digital_) soc.add_digital(std::move(*digital_));
      if (analog_) soc.add_analog(std::move(*analog_));
    } catch (const Error& e) {
      throw ParseError(source_, module_line_, e.what());
    }
    digital_.reset();
    analog_.reset();
  }

  std::istream& in_;
  std::string source_;
  int line_ = 0;
  int module_line_ = 0;  ///< Header line of the pending module.
  bool in_digital_ = false;
  bool have_max_power_ = false;
  bool have_power_window_ = false;
  std::optional<DigitalCore> digital_;
  std::optional<AnalogCore> analog_;
};

}  // namespace

Soc parse_soc(std::istream& in, const std::string& source_name) {
  return Parser(in, source_name).run();
}

Soc parse_soc_string(const std::string& text,
                     const std::string& source_name) {
  std::istringstream in(text);
  return parse_soc(in, source_name);
}

Soc parse_soc_file(const std::string& text, const std::string& path) {
  Soc soc = parse_soc_string(text, path);
  if (soc.name().empty() && soc.digital_count() == 0 &&
      soc.analog_count() == 0) {
    throw ParseError(path, 0, "no SocName or module definitions found");
  }
  return soc;
}

Soc load_soc_file(const std::string& path) {
  return parse_soc_file(read_file(path), path);
}

void write_soc(std::ostream& out, const Soc& soc) {
  // Every double goes through shortest_double: default stream precision
  // (6 digits) silently truncated fractional frequencies, breaking
  // parse(emit(soc)) == soc and with it soc::digest() stability.
  out << "# msoc test-planning SOC description (ITC'02-style)\n";
  // A nameless SOC (no SocName line) must not write a bare "SocName",
  // which the parser rejects.
  if (!soc.name().empty()) out << "SocName " << soc.name() << '\n';
  // Power fields are emitted only when set: an unconstrained SOC writes
  // the exact pre-power dialect, so golden files and digests survive.
  if (soc.power_constrained()) {
    out << "MaxPower " << shortest_double(soc.max_power()) << '\n';
  }
  if (soc.power_windowed()) {
    out << "PowerWindow " << soc.power_window().cycles << ' '
        << shortest_double(soc.power_window().limit) << '\n';
  }
  for (const DigitalCore& c : soc.digital_cores()) {
    out << "\nModule " << c.id << ' ' << c.name << '\n';
    out << "  Inputs " << c.inputs << '\n';
    out << "  Outputs " << c.outputs << '\n';
    out << "  Bidirs " << c.bidirs << '\n';
    if (!c.scan_chain_lengths.empty()) {
      out << "  ScanChains";
      for (int len : c.scan_chain_lengths) out << ' ' << len;
      out << '\n';
    }
    out << "  Patterns " << c.patterns << '\n';
    if (c.power != 0.0) {
      out << "  Power " << shortest_double(c.power) << '\n';
    }
  }
  for (const AnalogCore& c : soc.analog_cores()) {
    out << "\nAnalogModule " << c.name;
    if (!c.description.empty()) out << " \"" << c.description << '"';
    out << '\n';
    for (const AnalogTestSpec& t : c.tests) {
      out << "  Test " << t.name << " FLow " << shortest_double(t.f_low.hz())
          << " FHigh " << shortest_double(t.f_high.hz()) << " FSample "
          << shortest_double(t.f_sample.hz()) << " Cycles " << t.cycles
          << " Width " << t.tam_width << " Resolution " << t.resolution_bits;
      if (t.power != 0.0) out << " Power " << shortest_double(t.power);
      out << '\n';
    }
  }
}

std::string write_soc_string(const Soc& soc) {
  std::ostringstream out;
  write_soc(out, soc);
  return out.str();
}

}  // namespace msoc::soc
