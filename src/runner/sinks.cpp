#include "runner/sinks.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "serve/json.h"

namespace wave::runner {

namespace {

/// Shortest representation that round-trips a double, so the CSV dump is a
/// faithful, byte-stable serialization of the record set.
std::string roundtrip(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// RFC 4180 quoting for header keys and label values: fields containing a
/// comma, quote, or newline are quoted with embedded quotes doubled, so a
/// label like `Sweep3D 1000^3, 30 groups` cannot shift columns.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Union of keys in first-appearance order across all records.
template <typename Get>
std::vector<std::string> key_union(const std::vector<RunRecord>& records,
                                   Get get) {
  std::vector<std::string> keys;
  for (const RunRecord& r : records)
    for (const auto& [key, value] : get(r)) {
      bool known = false;
      for (const std::string& k : keys)
        if (k == key) {
          known = true;
          break;
        }
      if (!known) keys.push_back(key);
    }
  return keys;
}

}  // namespace

Column Column::label(const std::string& axis) { return label(axis, axis); }

Column Column::label(std::string header, const std::string& axis) {
  return {std::move(header),
          [axis](const RunRecord& r) { return r.label(axis); }};
}

Column Column::metric(std::string header, const std::string& name,
                      int precision, double scale) {
  return {std::move(header), [name, precision, scale](const RunRecord& r) {
            if (!r.has(name)) return std::string("-");
            return common::Table::num(scale * r.metric(name), precision);
          }};
}

Column Column::integer(std::string header, const std::string& name,
                       double scale) {
  return {std::move(header), [name, scale](const RunRecord& r) {
            if (!r.has(name)) return std::string("-");
            return common::Table::integer(
                static_cast<long long>(scale * r.metric(name)));
          }};
}

Column Column::computed(std::string header,
                        std::function<std::string(const RunRecord&)> fn) {
  return {std::move(header), std::move(fn)};
}

common::Table make_table(const std::vector<RunRecord>& records,
                         const std::vector<Column>& columns) {
  std::vector<std::string> headers;
  headers.reserve(columns.size());
  for (const Column& c : columns) headers.push_back(c.header);
  common::Table table(std::move(headers));
  for (const RunRecord& r : records) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const Column& c : columns) row.push_back(c.cell(r));
    table.add_row(std::move(row));
  }
  return table;
}

common::Table pivot_table(const std::vector<RunRecord>& records,
                          const std::string& row_axis,
                          const std::string& col_axis,
                          const std::string& metric, int precision,
                          double scale, const std::string& corner_header) {
  std::vector<std::string> rows, cols;
  for (const RunRecord& r : records) {
    const std::string& rl = r.label(row_axis);
    const std::string& cl = r.label(col_axis);
    if (std::find(rows.begin(), rows.end(), rl) == rows.end())
      rows.push_back(rl);
    if (std::find(cols.begin(), cols.end(), cl) == cols.end())
      cols.push_back(cl);
  }

  std::vector<std::string> headers{
      corner_header.empty() ? row_axis : corner_header};
  headers.insert(headers.end(), cols.begin(), cols.end());
  common::Table table(std::move(headers));

  for (const std::string& rl : rows) {
    std::vector<std::string> row{rl};
    for (const std::string& cl : cols) {
      std::string cell = "-";
      for (const RunRecord& r : records)
        if (r.label(row_axis) == rl && r.label(col_axis) == cl &&
            r.has(metric)) {
          cell = common::Table::num(scale * r.metric(metric), precision);
          break;
        }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  return table;
}

void write_csv(std::ostream& os, const std::vector<RunRecord>& records) {
  const auto label_keys = key_union(
      records, [](const RunRecord& r) -> const auto& { return r.labels; });
  const auto metric_keys = key_union(
      records, [](const RunRecord& r) -> const auto& { return r.metrics; });

  os << "index";
  for (const std::string& k : label_keys) os << ',' << csv_field(k);
  for (const std::string& k : metric_keys) os << ',' << csv_field(k);
  os << '\n';

  for (const RunRecord& r : records) {
    os << r.index;
    for (const std::string& k : label_keys) {
      os << ',';
      for (const auto& [name, value] : r.labels)
        if (name == k) {
          os << csv_field(value);
          break;
        }
    }
    for (const std::string& k : metric_keys) {
      os << ',';
      if (r.has(k)) os << roundtrip(r.metric(k));
    }
    os << '\n';
  }
}

void write_json(std::ostream& os, const std::vector<RunRecord>& records) {
  os << "[\n";
  std::string line;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    line = "  {\"index\": " + std::to_string(r.index) + ", \"labels\": {";
    for (std::size_t j = 0; j < r.labels.size(); ++j) {
      if (j) line += ", ";
      serve::append_json_string(line, r.labels[j].first);
      line += ": ";
      serve::append_json_string(line, r.labels[j].second);
    }
    line += "}, \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      if (j) line += ", ";
      serve::append_json_string(line, r.metrics[j].first);
      line += ": ";
      serve::append_json_number(line, r.metrics[j].second);
    }
    line += i + 1 < records.size() ? "}},\n" : "}}\n";
    os << line;
  }
  os << "]\n";
}

std::string to_csv(const std::vector<RunRecord>& records) {
  std::ostringstream os;
  write_csv(os, records);
  return os.str();
}

void print_header(const std::string& id, const std::string& title,
                  const std::string& paper_expectation) {
  std::cout << "=== " << id << ": " << title << " ===\n"
            << "Paper expectation: " << paper_expectation << "\n\n";
}

void emit(const common::Cli& cli, const std::vector<RunRecord>& records,
          const common::Table& table) {
  if (cli.has("json"))
    write_json(std::cout, records);
  else if (cli.has("csv"))
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << std::endl;
}

void emit(const common::Cli& cli, const std::vector<RunRecord>& records,
          const std::vector<Column>& columns) {
  emit(cli, records, make_table(records, columns));
}

}  // namespace wave::runner
